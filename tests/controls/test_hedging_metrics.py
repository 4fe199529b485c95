"""Regression tests for the hedging metrics-correctness fixes.

Three bugs shipped with the PR 6 hedging seam, each pinned here:

* a hedge-won read's straggling primary response used to overwrite
  ``completed_at``, so ``Request.latency`` disagreed with the latency the
  metrics recorded at win time;
* a hedge win used to credit the *primary's* server a windowed-load
  completion at hedge-win time while the primary's actual completion was
  swallowed, shifting the Fig. 8/9 per-server load series into earlier
  windows under hedging;
* ``_fire_hedge`` with no live candidate returned without re-arming the
  timer, permanently disarming hedging for that request even though the
  extra-copy budget remained.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import CassandraCluster, ClusterConfig
from repro.controls import ControlSpec
from repro.controls.hedging import QuantileHedging
from repro.core.feedback import ServerFeedback
from repro.simulator.client import SimClient
from repro.simulator.engine import EventLoop
from repro.simulator.metrics import MetricsCollector
from repro.simulator.network import ConstantLatency
from repro.simulator.request import Request, RequestKind
from repro.simulator.simulation import ReplicaSelectionSimulation, SimulationConfig
from repro.strategies import make_selector


class _StubServer:
    """A dispatch sink with ground-truth liveness (never responds)."""

    def __init__(self, up: bool = True) -> None:
        self.is_up = up
        self.received: list[Request] = []

    def enqueue(self, request: Request) -> None:
        self.received.append(request)


class _StubTracker:
    def __init__(self, count: int) -> None:
        self.count = count


def _harness(down: frozenset = frozenset(), seed: int = 0, window_ms: float = 1.0):
    """A warmed-up hedging client over stub servers; hedge threshold = 1 ms."""
    loop = EventLoop()
    servers = {sid: _StubServer(up=sid not in down) for sid in (0, 1, 2, 3, 4)}
    policy = QuantileHedging(quantile=0.9, max_extra=2, min_samples=5, history=100)
    for _ in range(10):
        policy.record(1.0)
    tracker = _StubTracker(count=len(down))
    detector = ControlSpec.parse("binary").build(down_tracker=tracker, servers=servers)
    metrics = MetricsCollector(window_ms=window_ms)
    client = SimClient(
        loop=loop,
        client_id="c",
        selector=make_selector("RAND", rng=np.random.default_rng(seed)),
        servers=servers,
        network=ConstantLatency(0.1),
        metrics=metrics,
        read_repair_probability=0.0,
        rng=np.random.default_rng(seed + 1),
        failure_detector=detector,
        hedging=policy,
    )
    return loop, servers, client, tracker, metrics


def _feedback(server_id) -> ServerFeedback:
    return ServerFeedback(queue_size=0, service_time=1.0, server_id=server_id)


def _hedged_primary_with_copy(loop, servers, client):
    """Dispatch a primary at t=0, let the hedge fire, return (primary, copy)."""
    primary = Request.create(
        client_id="c", replica_group=tuple(servers), created_at=0.0, kind=RequestKind.READ
    )
    primary.mark_dispatched(0.0, 0)
    client._hedge(primary, 0, 0.0)
    loop.run(until=1.5)  # hedge fires at t=1.0, copy lands on a stub at t=1.1
    copies = [
        req
        for server in servers.values()
        for req in server.received
        if req.kind == RequestKind.SPECULATIVE
    ]
    assert len(copies) == 1
    return primary, copies[0]


class TestStragglerDoesNotOverwriteCompletion:
    def test_completed_at_and_latency_pin_the_win_time(self):
        loop, servers, client, _, metrics = _harness()
        primary, copy = _hedged_primary_with_copy(loop, servers, client)

        # The hedge copy answers at t=3; the straggling primary at t=10.
        loop.schedule_at(3.0, client.on_server_response, copy, _feedback(copy.server_id), 1.0)
        loop.schedule_at(10.0, client.on_server_response, primary, _feedback(0), 1.0)
        loop.run(until=20.0)

        assert client.hedges_won == 1
        assert primary.completed_at == 3.0, "straggler must not overwrite the win time"
        assert primary.latency == 3.0
        # Exactly one client-visible completion, at the recorded win latency.
        assert metrics.completed_requests == 1
        assert metrics._latencies == [primary.latency]


class TestServerLoadAttributedAtActualResponseTime:
    def test_primary_server_credited_in_its_own_response_window(self):
        loop, servers, client, _, metrics = _harness(window_ms=1.0)
        primary, copy = _hedged_primary_with_copy(loop, servers, client)

        loop.schedule_at(3.0, client.on_server_response, copy, _feedback(copy.server_id), 1.0)
        loop.schedule_at(10.0, client.on_server_response, primary, _feedback(0), 1.0)
        loop.run(until=20.0)

        result = metrics.result(duration_ms=20.0)
        # The copy's server is credited in the window of the copy's response.
        copy_series = result.server_load_series[copy.server_id]
        assert copy_series[3] == 1
        # The primary's server is credited when it actually responded (t=10),
        # not in the hedge-win window (t=3).
        primary_series = result.server_load_series[0]
        assert primary_series[10] == 1
        assert primary_series[3] == 0
        assert result.per_server_completed == {0: 1, copy.server_id: 1}

    def test_unanswered_straggler_leaves_primary_server_uncredited(self):
        loop, servers, client, _, metrics = _harness(window_ms=1.0)
        primary, copy = _hedged_primary_with_copy(loop, servers, client)

        loop.schedule_at(3.0, client.on_server_response, copy, _feedback(copy.server_id), 1.0)
        loop.run(until=20.0)

        # The run ended before the primary's server ever answered: it did no
        # completion work, so it earns no windowed-load credit.
        result = metrics.result(duration_ms=20.0)
        assert 0 not in result.per_server_completed
        assert result.per_server_completed == {copy.server_id: 1}
        assert metrics.completed_requests == 1


class TestHedgeRearmsThroughTransientOutage:
    def test_hedge_fires_after_full_group_recovery(self):
        # Every peer of the primary is down when the hedge timer first
        # fires; the timer must stay armed (budget remains) and hedge once
        # the group recovers.
        loop, servers, client, tracker, _ = _harness(down=frozenset({1, 2, 3, 4}))
        primary = Request.create(
            client_id="c", replica_group=tuple(servers), created_at=0.0, kind=RequestKind.READ
        )
        primary.mark_dispatched(0.0, 0)
        client._hedge(primary, 0, 0.0)

        def recover() -> None:
            for server in servers.values():
                server.is_up = True
            tracker.count = 0

        loop.schedule_at(5.0, recover)
        loop.run(until=20.0)

        assert client.hedges_fired >= 1, "hedging must resume after recovery"
        hedged = [
            req
            for server in servers.values()
            for req in server.received
            if req.kind == RequestKind.SPECULATIVE
        ]
        assert len(hedged) == client.hedges_fired
        assert all(req.dispatched_at >= 5.0 for req in hedged)

    def test_no_rearm_once_budget_is_spent(self):
        # With every peer live the policy fires its full max_extra budget
        # and then stops: the re-arm path must respect the budget.
        loop, servers, client, _, _ = _harness()
        primary = Request.create(
            client_id="c", replica_group=tuple(servers), created_at=0.0, kind=RequestKind.READ
        )
        primary.mark_dispatched(0.0, 0)
        client._hedge(primary, 0, 0.0)
        loop.run(until=50.0)
        assert client.hedges_fired == 2  # max_extra


class TestHedgeTimerStopsWhenEveryReplicaIsUsed:
    """A budget beyond RF − 1 buys nothing and must cost nothing.

    At RF 3 two hedges put a copy on every replica of the group.  A timer
    re-armed on the remaining budget alone would fire, find no unused
    replica and re-arm again until the read completes — same hedges, same
    digest, thousands of empty events.  Both kernels and the cluster
    coordinator take the same decision.
    """

    @pytest.mark.parametrize("executor", ["object", "batched", "cluster"])
    def test_budget_beyond_the_group_processes_no_extra_events(self, executor):
        def run(max_extra: int):
            hedging = f"hedge:quantile=0.5,max_extra={max_extra}"
            if executor == "cluster":
                sim = CassandraCluster(
                    ClusterConfig(num_nodes=7, num_generators=30, duration_ms=600.0, hedging=hedging, seed=3)
                )
                result = sim.run()
                hedges = sum(c.speculations_fired for c in sim.coordinators.values())
            else:
                sim = ReplicaSelectionSimulation(
                    SimulationConfig(
                        strategy="LOR",
                        num_servers=6,
                        num_clients=8,
                        num_requests=3_000,
                        scenario="slow-node",
                        hedging=hedging,
                        kernel=executor,
                        seed=3,
                    )
                )
                result = sim.run()
                hedges = sum(client.hedges_fired for client in sim.clients)
            return sim.loop.processed_events, hedges, result.digest()

        events, hedges, digest = run(max_extra=2)
        assert hedges > 1_000, "the run must actually hedge"
        assert run(max_extra=5) == (events, hedges, digest)
