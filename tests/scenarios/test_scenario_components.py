"""Unit tests for scenario components and the perturbations they schedule."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.scenarios import (
    CrashWindows,
    GCPauses,
    HeterogeneousServiceRates,
    LoadSpike,
    NetworkDelayChange,
    SlowServers,
)
from repro.simulator import ConstantLatency, SimulationConfig, run_simulation
from repro.simulator.engine import EventLoop
from repro.simulator.server import DownServerTracker, SimServer
from repro.simulator.simulation import ReplicaSelectionSimulation
from repro.scenarios import ScenarioContext
from repro.simulator.workload import PoissonArrivalProcess


def make_context(num_servers=5, loop=None, servers=None):
    loop = loop or EventLoop()
    servers = servers or [
        SimServer(loop, server_id=i, deterministic=True, rng=np.random.default_rng(i))
        for i in range(num_servers)
    ]
    return ScenarioContext(loop, servers, np.random.default_rng(0))


def make_server(loop, sid=0, tracker=None):
    return SimServer(
        loop, server_id=sid, deterministic=True,
        rng=np.random.default_rng(sid), down_tracker=tracker,
    )


class TestCrashSchedule:
    """Crash/restart windows, as the ``CrashWindows`` component schedules them."""

    def test_crash_and_restore_edges(self):
        loop = EventLoop()
        tracker = DownServerTracker()
        server = make_server(loop, tracker=tracker)
        CrashWindows(first_at_ms=10.0, down_ms=20.0).start(make_context(loop=loop, servers=[server]))
        loop.run(until=5.0)
        assert server.is_up and tracker.count == 0
        loop.run(until=15.0)
        assert not server.is_up and tracker.count == 1
        loop.run(until=35.0)
        assert server.is_up and tracker.count == 0
        assert server.crashes == 1

    def test_down_server_queues_but_does_not_serve(self):
        from repro.simulator.request import Request

        loop = EventLoop()
        server = make_server(loop)
        server.crash()
        request = Request.create(client_id=0, replica_group=(0,), created_at=0.0)
        server.enqueue(request)
        loop.run(until=100.0)
        assert server.requests_completed == 0
        assert server.enqueued_while_down == 1
        server.restore()
        loop.run(until=200.0)
        assert server.requests_completed == 1

    def test_permanent_crash_and_stop_restores(self):
        loop = EventLoop()
        tracker = DownServerTracker()
        server = make_server(loop, tracker=tracker)
        schedule = CrashWindows(first_at_ms=5.0, down_ms=None)
        schedule.start(make_context(loop=loop, servers=[server]))
        loop.run(until=50.0)
        assert not server.is_up
        schedule.stop()
        assert server.is_up and tracker.count == 0

    def test_invalid_window_rejected(self):
        ctx = make_context(num_servers=1)
        with pytest.raises(ValueError, match="end must follow start"):
            CrashWindows(first_at_ms=10.0, down_ms=-5.0).start(ctx)
        with pytest.raises(ValueError, match="non-negative"):
            CrashWindows(first_at_ms=-1.0).start(ctx)
        assert ctx.loop.pending_events == 0

    def test_crash_restore_idempotent(self):
        tracker = DownServerTracker()
        server = make_server(EventLoop(), tracker=tracker)
        server.crash()
        server.crash()
        assert tracker.count == 1 and server.crashes == 1
        server.restore()
        server.restore()
        assert tracker.count == 0


def arrival_context(process):
    """A context whose simulation is just the workload's arrival process."""
    ctx = make_context(loop=process.loop)
    ctx.simulation = SimpleNamespace(generator=SimpleNamespace(process=process))
    return ctx


class TestArrivalRateSchedule:
    """Arrival-rate steps, as the ``LoadSpike`` component schedules them."""

    def test_steps_scale_the_base_rate_and_stop_restores(self):
        loop = EventLoop()
        process = PoissonArrivalProcess(
            loop, rate_per_ms=2.0, total_arrivals=10_000,
            on_arrival=lambda: None, rng=np.random.default_rng(0),
        )
        spike = LoadSpike(start_ms=10.0, end_ms=20.0, factor=3.0)
        process.start()
        spike.start(arrival_context(process))
        loop.run(until=15.0)
        assert process.rate_per_ms == pytest.approx(6.0)
        loop.run(until=25.0)
        assert process.rate_per_ms == pytest.approx(2.0)
        spike.stop()
        assert process.rate_per_ms == pytest.approx(2.0)

    def test_open_spike_lasts_until_stop(self):
        loop = EventLoop()
        process = PoissonArrivalProcess(loop, rate_per_ms=2.0, total_arrivals=1, on_arrival=lambda: None)
        spike = LoadSpike(start_ms=10.0, end_ms=None, factor=1.5)
        spike.start(arrival_context(process))
        loop.run(until=1_000.0)
        assert process.rate_per_ms == pytest.approx(3.0)
        spike.stop()
        assert process.rate_per_ms == pytest.approx(2.0)

    def test_invalid_steps_rejected(self):
        loop = EventLoop()
        process = PoissonArrivalProcess(
            loop, rate_per_ms=2.0, total_arrivals=1, on_arrival=lambda: None
        )
        with pytest.raises(ValueError):
            LoadSpike(start_ms=10.0, factor=0.0).start(arrival_context(process))
        with pytest.raises(ValueError):
            LoadSpike(start_ms=-1.0).start(arrival_context(process))
        with pytest.raises(ValueError):
            process.set_rate(0.0)


class TestDeclarativeComponents:
    def test_slow_servers_targets_one_server(self):
        ctx = make_context()
        component = SlowServers(factor=5.0, start_ms=0.0, end_ms=None, targets=1)
        component.start(ctx)
        ctx.loop.run(until=1.0)
        assert ctx.servers[1].current_service_time_ms == pytest.approx(20.0)
        assert ctx.servers[0].current_service_time_ms == pytest.approx(4.0)
        component.stop()
        assert ctx.servers[1].current_service_time_ms == pytest.approx(4.0)

    def test_heterogeneous_rates_within_spread_and_deterministic(self):
        ctx_a = make_context()
        ctx_b = make_context()
        component = HeterogeneousServiceRates(spread=3.0)
        component.start(ctx_a)
        HeterogeneousServiceRates(spread=3.0).start(ctx_b)
        times_a = [s.current_service_time_ms for s in ctx_a.servers]
        times_b = [s.current_service_time_ms for s in ctx_b.servers]
        assert times_a == times_b  # same scenario rng seed -> same fleet
        for t in times_a:
            assert 4.0 / 3.0 - 1e-9 <= t <= 12.0 + 1e-9
        assert len(set(times_a)) > 1
        component.stop()
        assert all(s.current_service_time_ms == pytest.approx(4.0) for s in ctx_a.servers)

    def test_crash_windows_staggers_targets(self):
        ctx = make_context()
        component = CrashWindows(
            first_at_ms=10.0, down_ms=5.0, stagger_ms=20.0, targets=(0, 1)
        )
        component.start(ctx)
        ctx.loop.run(until=12.0)
        assert not ctx.servers[0].is_up and ctx.servers[1].is_up
        ctx.loop.run(until=31.0)
        assert ctx.servers[0].is_up and not ctx.servers[1].is_up
        ctx.loop.run(until=40.0)
        assert all(s.is_up for s in ctx.servers)

    def test_load_spike_requires_ordered_window(self):
        ctx = make_context()
        with pytest.raises(ValueError):
            LoadSpike(start_ms=10.0, end_ms=5.0).start(ctx)

    def test_network_change_swaps_the_simulation_model(self):
        config = SimulationConfig(
            num_servers=5, num_clients=4, num_requests=0, fluctuation_enabled=False
        )
        sim = ReplicaSelectionSimulation(config)
        ctx = make_context()
        ctx.simulation = sim
        ctx.loop = sim.loop
        component = NetworkDelayChange(at_ms=10.0, delay_ms=1.5)
        component.start(ctx)
        sim.loop.run(until=20.0)
        assert isinstance(sim.network, ConstantLatency)
        assert sim.network.delay_ms == pytest.approx(1.5)
        assert all(c.network is sim.network for c in sim.clients)
        component.stop()
        assert sim.network.delay_ms == pytest.approx(config.network_delay_ms)

    def test_network_component_requires_simulation(self):
        ctx = make_context()  # no simulation attached
        with pytest.raises(ValueError):
            NetworkDelayChange(at_ms=0.0, delay_ms=1.0).start(ctx)


class TestScriptedEdges:
    """The scripted components' timelines, as data and as scheduled events."""

    def test_slow_servers_edges_are_live_control_ops(self):
        component = SlowServers(factor=3, start_ms=10.0, end_ms=30.0, targets=[2, -3])
        assert component.edges(3) == [
            (10.0, 2, {"op": "slow", "factor": 3.0}),
            (30.0, 2, {"op": "slow", "factor": 1.0}),
            (10.0, 0, {"op": "slow", "factor": 3.0}),
            (30.0, 0, {"op": "slow", "factor": 1.0}),
        ]

    def test_crash_windows_edges_stagger_targets_then_repeat(self):
        component = CrashWindows(
            first_at_ms=0.0, down_ms=10.0, stagger_ms=100.0, repeats=2, period_ms=1_000.0, targets=(1, 0)
        )
        crash, restore = {"op": "crash"}, {"op": "restore"}
        assert component.edges(2) == [
            (0.0, 1, crash), (10.0, 1, restore), (1_000.0, 1, crash), (1_010.0, 1, restore),
            (100.0, 0, crash), (110.0, 0, restore), (1_100.0, 0, crash), (1_110.0, 0, restore),
        ]

    def test_permanent_crash_has_no_restore_edge(self):
        component = CrashWindows(down_ms=None, targets=(0, 1))
        assert component.edges(3) == [(250.0, 0, {"op": "crash"}), (850.0, 1, {"op": "crash"})]

    def test_start_schedules_one_event_per_edge(self):
        ctx = make_context()
        component = CrashWindows(first_at_ms=5.0, down_ms=5.0, stagger_ms=1.0, targets="all", repeats=2)
        component.start(ctx)
        assert ctx.loop.pending_events == len(component.edges(5)) == 20
        ctx.loop.run_until_idle()
        assert [s.crashes for s in ctx.servers] == [2] * 5
        assert all(s.is_up for s in ctx.servers)

    def test_stop_before_the_first_edge_cancels_the_timeline(self):
        ctx = make_context(num_servers=2)
        crash = CrashWindows(first_at_ms=100.0, down_ms=None, targets=(0,))
        slow = SlowServers(factor=4.0, start_ms=100.0, targets=1)
        crash.start(ctx)
        slow.start(ctx)
        ctx.loop.run(until=50.0)
        crash.stop()
        slow.stop()
        ctx.loop.run(until=1_000.0)
        assert ctx.servers[0].is_up and ctx.servers[0].crashes == 0
        assert ctx.servers[1].current_service_time_ms == pytest.approx(4.0)

    def test_equal_slowdowns_compose(self):
        ctx = make_context(num_servers=1)
        first, second = SlowServers(factor=2.0), SlowServers(factor=2.0)
        assert first == second
        first.start(ctx)
        second.start(ctx)
        ctx.loop.run(until=1.0)
        assert ctx.servers[0].current_service_time_ms == pytest.approx(16.0)
        second.stop()
        assert ctx.servers[0].current_service_time_ms == pytest.approx(8.0)
        first.stop()
        assert ctx.servers[0].current_service_time_ms == pytest.approx(4.0)


class TestComposedSpeedPerturbations:
    """Regression: perturbation sources own independent speed factors, so
    composed components multiply instead of clobbering each other."""

    def test_gc_pause_ending_does_not_erase_a_permanent_slow_node(self):
        ctx = make_context()
        slow = SlowServers(factor=4.0, start_ms=0.0, end_ms=None, targets=0)
        gc = GCPauses(
            mean_interarrival_ms=5.0, mean_duration_ms=5.0, slowdown_factor=2.0
        )
        slow.start(ctx)
        gc.start(ctx)
        ctx.loop.run(until=500.0)
        server = ctx.servers[0]
        # Whatever state the GC process is in, the slow-node factor must
        # still be present (alone: 16 ms; during a pause: 32 ms).
        assert server.current_service_time_ms in (
            pytest.approx(16.0), pytest.approx(32.0)
        )
        gc.stop()
        assert server.current_service_time_ms == pytest.approx(16.0)
        slow.stop()
        assert server.current_service_time_ms == pytest.approx(4.0)

    def test_factors_multiply_while_both_sources_are_active(self):
        loop = EventLoop()
        server = make_server(loop)
        server.set_service_time_multiplier(4.0, source="slow-node")
        server.set_service_time_multiplier(2.0, source="gc")
        assert server.current_service_time_ms == pytest.approx(32.0)
        server.set_service_time_multiplier(1.0, source="gc")
        assert server.current_service_time_ms == pytest.approx(16.0)
        server.set_service_time_multiplier(1.0, source="slow-node")
        assert server.current_service_time_ms == pytest.approx(4.0)

    def test_default_source_keeps_single_writer_behavior(self):
        loop = EventLoop()
        server = make_server(loop)
        server.set_service_rate_multiplier(3.0)
        assert server.current_service_time_ms == pytest.approx(4.0 / 3.0)
        server.set_service_rate_multiplier(1.0)
        assert server.current_service_time_ms == pytest.approx(4.0)


class TestTargetRangeErrors:
    def test_out_of_range_target_is_a_clear_value_error(self):
        ctx = make_context(num_servers=3)
        with pytest.raises(ValueError, match="out of range for 3 servers"):
            ctx.resolve_targets(3)
        with pytest.raises(ValueError, match="out of range"):
            ctx.resolve_targets([0, 7])

    def test_crash_recovery_defaults_adapt_to_tiny_clusters(self):
        config = SimulationConfig(
            num_servers=3, num_clients=4, num_requests=60, utilization=0.5,
            strategy="RAND", seed=1, scenario="crash-recovery",
            scenario_params={"first_at_ms": 5.0, "down_ms": 10.0},
        )
        result = run_simulation(config)  # must not raise IndexError
        assert result.completed_requests == 60


class TestScenarioEndToEnd:
    def test_slow_node_shifts_load_away(self):
        config = SimulationConfig(
            num_servers=6, num_clients=8, num_requests=600, utilization=0.5,
            strategy="C3", seed=4, scenario="slow-node",
            scenario_params={"factor": 8.0, "target": 0},
        )
        result = run_simulation(config)
        completed = result.per_server_completed
        slow = completed.get(0, 0)
        others = [completed.get(sid, 0) for sid in range(1, 6)]
        assert slow < min(others), (
            f"slow node served {slow}, healthy nodes {others} — C3 should route around it"
        )

    def test_crash_scenario_reroutes_and_completes(self):
        config = SimulationConfig(
            num_servers=6, num_clients=8, num_requests=600, utilization=0.5,
            strategy="LOR", seed=4, scenario="crash-recovery",
            scenario_params={"first_at_ms": 20.0, "down_ms": 40.0, "stagger_ms": 10.0, "targets": [0, 1]},
        )
        result = run_simulation(config)
        assert result.completed_requests == 600
