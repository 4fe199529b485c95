"""Property-based tests (hypothesis) for the control-plane policies.

The four contracts the ISSUE pins down:

* phi suspicion grows monotonically while a server stays silent and resets
  to zero on the next heartbeat;
* a hedged read is never dispatched to a replica the failure detector
  currently considers down;
* the unified CUBIC controller never exceeds a configured ``max_rate`` cap
  (and never sinks below ``min_rate``);
* control-spec sweeps are byte-identical between serial and process-pool
  execution.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.controls import ControlSpec
from repro.controls.detectors import PhiAccrualFailureDetector
from repro.controls.hedging import QuantileHedging
from repro.runner import SweepRunner, SweepSpec
from repro.simulator import SimulationConfig
from repro.simulator.client import SimClient
from repro.simulator.engine import EventLoop
from repro.simulator.metrics import MetricsCollector
from repro.simulator.network import ConstantLatency
from repro.simulator.request import Request, RequestKind
from repro.strategies import make_selector

gaps = st.floats(min_value=0.1, max_value=50.0, allow_nan=False, allow_infinity=False)


class TestPhiProperties:
    @given(st.lists(gaps, min_size=4, max_size=40), st.lists(gaps, min_size=1, max_size=20))
    def test_phi_monotone_during_silence(self, intervals, silences):
        detector = PhiAccrualFailureDetector()
        now = 0.0
        for gap in intervals:
            now += gap
            detector.heartbeat("s", now)
        # Immediately after a heartbeat the suspicion is zero; from there it
        # grows monotonically with the length of the silence.
        assert detector.phi("s", now) == 0.0
        probes = np.cumsum(silences)
        phis = [detector.phi("s", now + t) for t in probes]
        assert all(b >= a for a, b in zip(phis, phis[1:]))
        assert all(p >= 0.0 for p in phis)

    @given(st.lists(gaps, min_size=4, max_size=40), gaps)
    def test_heartbeat_resets_phi(self, intervals, silence):
        detector = PhiAccrualFailureDetector()
        now = 0.0
        for gap in intervals:
            now += gap
            detector.heartbeat("s", now)
        later = now + 1_000.0 + silence  # long enough to be deeply suspected
        assert detector.phi("s", later) > 0.0
        detector.heartbeat("s", later)
        assert detector.phi("s", later) == 0.0
        assert detector.is_alive("s", later)

    @given(st.lists(gaps, min_size=0, max_size=2))
    def test_too_little_history_never_convicts(self, intervals):
        # Fewer than min_intervals inter-arrival samples: phi stays 0 and the
        # server counts as alive no matter how long the silence.
        detector = PhiAccrualFailureDetector(min_intervals=3)
        now = 0.0
        detector.heartbeat("s", now)
        for gap in intervals:
            now += gap
            detector.heartbeat("s", now)
        assert detector.phi("s", now + 1e6) == 0.0
        assert detector.is_alive("s", now + 1e6)
        assert not detector.suspicious()

    @given(st.lists(gaps, min_size=4, max_size=40))
    def test_threshold_orders_conviction(self, intervals):
        # A lower threshold can only convict earlier, never later.
        lenient = PhiAccrualFailureDetector(threshold=12.0)
        strict = PhiAccrualFailureDetector(threshold=2.0)
        now = 0.0
        for gap in intervals:
            now += gap
            lenient.heartbeat("s", now)
            strict.heartbeat("s", now)
        for silence in (1.0, 10.0, 100.0, 1e4, 1e6):
            if not lenient.is_alive("s", now + silence):
                assert not strict.is_alive("s", now + silence)


class _StubServer:
    """A dispatch sink with ground-truth liveness."""

    def __init__(self, up: bool) -> None:
        self.is_up = up
        self.received: list[Request] = []

    def enqueue(self, request: Request) -> None:
        self.received.append(request)


class _StubTracker:
    def __init__(self, count: int) -> None:
        self.count = count


def _hedging_client(down: frozenset, seed: int, group=(0, 1, 2, 3, 4)):
    loop = EventLoop()
    servers = {sid: _StubServer(up=sid not in down) for sid in group}
    policy = QuantileHedging(quantile=0.9, max_extra=2, min_samples=5, history=100)
    for _ in range(10):
        policy.record(1.0)  # warmed up: hedge threshold is 1 ms
    tracker = _StubTracker(count=len(down))
    detector = ControlSpec.parse("binary").build(down_tracker=tracker, servers=servers)
    client = SimClient(
        loop=loop,
        client_id="c",
        selector=make_selector("RAND", rng=np.random.default_rng(seed)),
        servers=servers,
        network=ConstantLatency(0.1),
        metrics=MetricsCollector(),
        read_repair_probability=0.0,
        rng=np.random.default_rng(seed + 1),
        failure_detector=detector,
        hedging=policy,
    )
    return loop, servers, client


class TestHedgingNeverTargetsDownReplicas:
    @given(
        down=st.sets(st.integers(min_value=1, max_value=4), max_size=4),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_hedge_copies_land_only_on_live_replicas(self, down, seed):
        # Server 0 (the primary target) is always up; any subset of the rest
        # may be crashed.  However the RNG falls, no speculative copy may be
        # dispatched to a server the detector considers down.
        loop, servers, client = _hedging_client(frozenset(down), seed)
        primary = Request.create(
            client_id="c", replica_group=tuple(servers), created_at=0.0, kind=RequestKind.READ
        )
        primary.mark_dispatched(0.0, 0)
        client._hedge(primary, 0, 0.0)
        loop.run(until=50.0)
        for sid, server in servers.items():
            if not server.is_up:
                assert server.received == [], f"hedge dispatched to down server {sid}"
        hedged = [
            req
            for server in servers.values()
            for req in server.received
            if req.kind == RequestKind.SPECULATIVE
        ]
        assert len(hedged) == client.hedges_fired
        live_others = {sid for sid in servers if sid != 0 and servers[sid].is_up}
        # max_extra=2 with distinct targets per copy: bounded by live peers.
        assert client.hedges_fired <= min(2, len(live_others))
        if live_others:
            assert client.hedges_fired >= 1  # threshold elapsed, a target existed
        assert {req.server_id for req in hedged} <= live_others

    def test_no_live_peer_means_no_hedge(self):
        loop, servers, client = _hedging_client(frozenset({1, 2, 3, 4}), seed=3)
        primary = Request.create(
            client_id="c", replica_group=tuple(servers), created_at=0.0, kind=RequestKind.READ
        )
        primary.mark_dispatched(0.0, 0)
        client._hedge(primary, 0, 0.0)
        loop.run(until=50.0)
        assert client.hedges_fired == 0
        assert all(s.received == [] for s in servers.values())


class TestCubicRateCap:
    @given(
        cap=st.floats(min_value=1.0, max_value=100.0, allow_nan=False),
        steps=st.lists(
            st.tuples(st.floats(min_value=0.5, max_value=40.0), st.booleans()),
            min_size=1,
            max_size=120,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_srate_never_exceeds_configured_cap(self, cap, steps):
        controller = ControlSpec.parse(
            f"cubic:initial_rate=1.0,smax=50,rate_delta_ms=5,max_rate={cap}"
        ).build()
        now = 0.0
        for dt, respond in steps:
            now += dt
            if respond:
                controller.on_response(now)
            else:
                controller.try_acquire(now)
            assert controller.config.min_rate <= controller.srate <= cap

    def test_uncapped_controller_grows_past_any_finite_bound_eventually(self):
        # Sanity that the cap assertion above is not vacuous: without a cap
        # the same schedule grows the rate well beyond the capped ceiling.
        capped = ControlSpec.parse("cubic:initial_rate=1.0,smax=50,rate_delta_ms=5,max_rate=8").build()
        free = ControlSpec.parse("cubic:initial_rate=1.0,smax=50,rate_delta_ms=5").build()
        now = 0.0
        for _ in range(2000):
            # A response burst well above srate: rrate > srate, so the cubic
            # growth path runs on every update.
            now += 0.2
            capped.on_response(now)
            free.on_response(now)
        assert capped.srate <= 8.0
        assert free.srate > 8.0


class TestControlSweepDeterminism:
    def test_serial_matches_pooled_byte_for_byte(self):
        spec = SweepSpec(
            base=SimulationConfig(
                num_servers=9,
                num_clients=8,
                num_requests=200,
                utilization=0.6,
                fluctuation_enabled=False,
            ),
            grid={
                "strategy": ("C3", "LOR"),
                "failure_detector": ("binary", "phi:threshold=6"),
                "hedging": (None, "hedge:quantile=0.9,min_samples=10"),
            },
            seeds=(0,),
        )
        serial = SweepRunner(parallel=False).run(spec)
        pooled = SweepRunner(max_workers=2).run(spec)
        assert serial.trial_digests() == pooled.trial_digests()
        for s, p in zip(serial.trials, pooled.trials):
            assert (s.params, s.seed) == (p.params, p.seed)
            assert s.summary == p.summary

    def test_control_axes_produce_distinct_trial_keys(self):
        spec = SweepSpec(
            base=SimulationConfig(num_requests=100),
            grid={
                "failure_detector": ("binary", "phi", "phi:threshold=6"),
                "hedging": (None, "hedge:quantile=0.9"),
            },
            seeds=(0,),
        )
        keys = [t.key for t in spec.trials()]
        assert len(set(keys)) == len(keys) == 6
