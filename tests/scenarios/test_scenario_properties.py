"""Property-based tests for the scenario engine.

Invariants, not values:

* an arbitrary composition of scenario components — crash windows
  (including permanent failures of whole replica groups), GC pauses, load
  spikes, slowdowns, network steps — never deadlocks the simulation: the
  run always returns, bounded by the time cap;
* crashed servers are never dispatched to while down;
* serial and process-pool sweep execution stay byte-identical with
  scenarios in the grid.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.runner import SweepRunner, SweepSpec
from repro.scenarios import (
    CrashWindows,
    GCPauses,
    HeterogeneousServiceRates,
    LoadSpike,
    NetworkDelayChange,
    Scenario,
    ScenarioContext,
    SlowServers,
)
from repro.simulator import SimulationConfig, run_simulation
from repro.simulator.request import Request
from repro.simulator.simulation import ReplicaSelectionSimulation

NUM_SERVERS = 6


def small_config(**overrides) -> SimulationConfig:
    params = dict(
        num_servers=NUM_SERVERS,
        num_clients=8,
        num_requests=120,
        utilization=0.6,
        strategy="RAND",
        seed=9,
        fluctuation_enabled=False,
        max_sim_time_ms=600.0,
    )
    params.update(overrides)
    return SimulationConfig(**params)


def run_composed(components, config) -> object:
    """Run a simulation with an ad-hoc (unregistered) component composition."""
    sim = ReplicaSelectionSimulation(config)
    sim.scenario = Scenario(name="property-mix", components=tuple(components))
    sim._scenario_ctx = ScenarioContext(
        loop=sim.loop,
        servers=[sim.servers[sid] for sid in range(config.num_servers)],
        rng=np.random.default_rng(123),
        simulation=sim,
    )
    return sim.run()


# Component strategies: times are kept inside / around the run's horizon so
# schedules genuinely overlap the workload (and each other).
_times = st.floats(min_value=0.0, max_value=300.0, allow_nan=False, allow_infinity=False)

_crash = st.builds(
    CrashWindows,
    first_at_ms=_times,
    down_ms=st.one_of(st.none(), st.floats(min_value=1.0, max_value=150.0)),
    stagger_ms=st.floats(min_value=0.0, max_value=100.0),
    repeats=st.integers(min_value=1, max_value=2),
    period_ms=st.floats(min_value=200.0, max_value=400.0),
    targets=st.lists(
        st.integers(min_value=0, max_value=NUM_SERVERS - 1), min_size=1, max_size=NUM_SERVERS, unique=True
    ).map(tuple),
)
_gc = st.builds(
    GCPauses,
    mean_interarrival_ms=st.floats(min_value=10.0, max_value=200.0),
    mean_duration_ms=st.floats(min_value=1.0, max_value=50.0),
    slowdown_factor=st.floats(min_value=1.5, max_value=10.0),
)
_slow = st.builds(
    SlowServers,
    factor=st.floats(min_value=1.5, max_value=8.0),
    start_ms=_times,
    end_ms=st.none(),
    targets=st.integers(min_value=0, max_value=NUM_SERVERS - 1),
)
_spike = st.tuples(_times, st.floats(min_value=10.0, max_value=200.0), st.floats(min_value=0.5, max_value=3.0)).map(
    lambda t: LoadSpike(start_ms=t[0], end_ms=t[0] + t[1], factor=t[2])
)
_net = st.builds(
    NetworkDelayChange,
    at_ms=_times,
    delay_ms=st.floats(min_value=0.05, max_value=2.0),
    jitter_ms=st.just(0.0),
)
_hetero = st.builds(HeterogeneousServiceRates, spread=st.floats(min_value=1.0, max_value=4.0))

_components = st.lists(st.one_of(_crash, _gc, _slow, _spike, _net, _hetero), min_size=1, max_size=4)


class TestArbitrarySchedulesNeverDeadlock:
    @given(components=_components, seed=st.integers(min_value=0, max_value=50))
    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_run_always_returns_within_the_time_cap(self, components, seed):
        config = small_config(seed=seed)
        result = run_composed(components, config)
        # The run returned (no deadlock / livelock) and respected the cap.
        assert result.duration_ms <= config.max_sim_time_ms + 1e-6
        assert 0 <= result.completed_requests <= config.num_requests
        # Crash-free compositions must complete everything they generated —
        # unless the composition overloads the system so badly (e.g. stacked
        # GC-pause processes all slowing every server) that the run is cut
        # off by the time cap.  That is an unstable configuration, not a
        # deadlock: the loop kept processing events until time ran out.
        if not any(isinstance(c, CrashWindows) for c in components):
            assert (
                result.completed_requests == config.num_requests
                or result.duration_ms >= config.max_sim_time_ms - 1e-6
            )

    @given(components=_components)
    @settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_teardown_restores_server_state(self, components):
        config = small_config()
        sim = ReplicaSelectionSimulation(config)
        sim.scenario = Scenario(name="property-mix", components=tuple(components))
        sim._scenario_ctx = ScenarioContext(
            loop=sim.loop,
            servers=[sim.servers[sid] for sid in range(config.num_servers)],
            rng=np.random.default_rng(7),
            simulation=sim,
        )
        sim.run()
        # Scenario.stop() ran at the end of run(): every server is back up
        # at nominal speed, ready for loop/server reuse.
        for server in sim.servers.values():
            assert server.is_up
            assert server.current_service_time_ms == pytest.approx(config.mean_service_time_ms)


class TestCrashedServersReceiveNoRequests:
    @given(
        first_at=st.floats(min_value=5.0, max_value=60.0),
        down=st.floats(min_value=10.0, max_value=120.0),
        strategy=st.sampled_from(["RAND", "LOR", "C3"]),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_no_dispatch_lands_inside_a_down_window(self, first_at, down, strategy, seed):
        stagger = 17.0
        targets = (0, 2)
        windows = {
            sid: (first_at + k * stagger, first_at + k * stagger + down)
            for k, sid in enumerate(targets)
        }
        dispatches: list[tuple[float, object]] = []
        original = Request.mark_dispatched

        def spy(self, now, server_id):
            dispatches.append((now, server_id))
            return original(self, now, server_id)

        config = small_config(
            strategy=strategy,
            seed=seed,
            scenario="crash-recovery",
            scenario_params={
                "first_at_ms": first_at,
                "down_ms": down,
                "stagger_ms": stagger,
                "targets": list(targets),
            },
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Request, "mark_dispatched", spy)
            result = run_simulation(config)
        assert dispatches, "the run dispatched nothing"
        assert result.completed_requests == config.num_requests
        for time, server_id in dispatches:
            window = windows.get(server_id)
            if window is not None:
                start, end = window
                assert not (start < time < end), (
                    f"request dispatched to server {server_id} at t={time:.3f} "
                    f"inside its down window ({start:.3f}, {end:.3f})"
                )


class TestSerialVsPoolWithScenarios:
    def test_pool_execution_matches_serial_byte_for_byte(self):
        spec = SweepSpec(
            base=small_config(num_requests=80),
            grid={
                "scenario": ("gc-storm", "crash-recovery"),
                "strategy": ("C3", "RAND"),
            },
            seeds=(0, 1),
        )
        serial = SweepRunner(parallel=False).run(spec)
        pooled = SweepRunner(max_workers=2).run(spec)
        assert serial.trial_digests() == pooled.trial_digests()
        for s, p in zip(serial.trials, pooled.trials):
            assert (s.params, s.seed) == (p.params, p.seed)
            assert s.summary == p.summary
