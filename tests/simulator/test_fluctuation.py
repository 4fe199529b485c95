"""Unit tests for the service-time fluctuation processes and components."""

import numpy as np
import pytest

from repro.scenarios import GCPauses, ScenarioContext, SlowServers
from repro.scenarios.processes import BimodalFluctuation
from repro.simulator.engine import EventLoop
from repro.simulator.server import SimServer


def make_servers(loop, count=4):
    return [
        SimServer(loop, server_id=i, base_service_time_ms=4.0, deterministic=True, rng=np.random.default_rng(i))
        for i in range(count)
    ]


def make_context(loop, servers):
    return ScenarioContext(loop, servers, np.random.default_rng(0))


class TestBimodalFluctuation:
    def test_servers_toggle_between_two_modes(self):
        loop = EventLoop()
        servers = make_servers(loop, count=6)
        fluct = BimodalFluctuation(loop, servers, interval_ms=10.0, rate_multiplier=3.0, rng=np.random.default_rng(0))
        fluct.start()
        loop.run(until=100.0)
        observed = {round(s.current_service_time_ms, 6) for s in servers}
        allowed = {round(4.0, 6), round(4.0 / 3.0, 6)}
        assert observed <= allowed

    def test_flip_count_grows_with_time(self):
        loop = EventLoop()
        servers = make_servers(loop, count=3)
        fluct = BimodalFluctuation(loop, servers, interval_ms=10.0, rng=np.random.default_rng(1))
        fluct.start()
        loop.run(until=95.0)
        # One flip per server per interval, including the initial one at t=0.
        assert fluct.flips == 3 * 10

    def test_start_is_idempotent(self):
        loop = EventLoop()
        servers = make_servers(loop, count=1)
        fluct = BimodalFluctuation(loop, servers, interval_ms=10.0, rng=np.random.default_rng(2))
        fluct.start()
        fluct.start()
        loop.run(until=5.0)
        assert fluct.flips == 1

    def test_invalid_parameters(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            BimodalFluctuation(loop, [], interval_ms=0.0)
        with pytest.raises(ValueError):
            BimodalFluctuation(loop, [], rate_multiplier=0.0)
        with pytest.raises(ValueError):
            BimodalFluctuation(loop, [], fast_probability=1.5)


class TestLatencyInflation:
    """Scripted slowdown episodes, as the ``SlowServers`` component schedules them."""

    def test_episode_slows_then_restores(self):
        loop = EventLoop()
        server = make_servers(loop, count=1)[0]
        SlowServers(factor=5.0, start_ms=10.0, end_ms=20.0).start(make_context(loop, [server]))
        loop.run(until=15.0)
        assert server.current_service_time_ms == pytest.approx(20.0)
        loop.run(until=25.0)
        assert server.current_service_time_ms == pytest.approx(4.0)

    def test_invalid_episode_rejected(self):
        loop = EventLoop()
        ctx = make_context(loop, make_servers(loop, count=1))
        with pytest.raises(ValueError):
            SlowServers(factor=2.0, start_ms=10.0, end_ms=5.0).start(ctx)
        with pytest.raises(ValueError):
            SlowServers(factor=0.0, start_ms=1.0, end_ms=2.0).start(ctx)


class TestHorizonEdgeAndLoopReuse:
    """Regression: a perturbation firing exactly at the run horizon used to
    leave servers' rate factors perturbed with no way to reset them, so an
    ``EventLoop`` reused via ``clear()`` ran its next scenario against
    degraded servers.  ``stop()`` is the fix: it cancels pending events and
    restores nominal speed."""

    def test_flip_at_horizon_then_stop_restores_nominal_rate(self):
        loop = EventLoop()
        servers = make_servers(loop, count=4)
        # seed 5: the flip at t=100 leaves at least one server in fast mode.
        fluct = BimodalFluctuation(loop, servers, interval_ms=100.0, rng=np.random.default_rng(5))
        fluct.start()
        loop.run(until=100.0)  # run() fires events scheduled exactly at the horizon
        assert any(s.current_service_time_ms != pytest.approx(4.0) for s in servers)
        loop.clear()
        fluct.stop()
        assert all(s.current_service_time_ms == pytest.approx(4.0) for s in servers)
        # The reused loop runs no stale flips: nothing changes speeds again.
        loop.run(until=500.0)
        assert all(s.current_service_time_ms == pytest.approx(4.0) for s in servers)

    def test_stopped_fluctuation_schedules_no_further_events(self):
        loop = EventLoop()
        servers = make_servers(loop, count=2)
        fluct = BimodalFluctuation(loop, servers, interval_ms=10.0, rng=np.random.default_rng(0))
        fluct.start()
        loop.run(until=25.0)
        fluct.stop()
        flips = fluct.flips
        loop.run(until=200.0)
        assert fluct.flips == flips
        assert loop.live_pending_events == 0

    def test_inflation_episode_straddling_horizon_is_reset_by_stop(self):
        loop = EventLoop()
        server = make_servers(loop, count=1)[0]
        # The episode's end lies beyond the horizon: pre-fix the server kept
        # its 5x multiplier forever after clear().
        inflation = SlowServers(factor=5.0, start_ms=50.0, end_ms=150.0)
        inflation.start(make_context(loop, [server]))
        loop.run(until=100.0)
        assert server.current_service_time_ms == pytest.approx(20.0)
        loop.clear()
        inflation.stop()
        assert server.current_service_time_ms == pytest.approx(4.0)

    def test_transient_slowdown_straddling_horizon_is_reset_by_stop(self):
        loop = EventLoop()
        servers = make_servers(loop, count=2)
        slowdowns = GCPauses(mean_interarrival_ms=5.0, mean_duration_ms=1000.0, slowdown_factor=4.0)
        slowdowns.start(make_context(loop, servers))
        loop.run(until=50.0)
        assert any(s.current_service_time_ms == pytest.approx(16.0) for s in servers)
        loop.clear()
        slowdowns.stop()
        assert all(s.current_service_time_ms == pytest.approx(4.0) for s in servers)
        loop.run(until=500.0)
        assert all(s.current_service_time_ms == pytest.approx(4.0) for s in servers)

    def test_permanent_episode_supported(self):
        loop = EventLoop()
        server = make_servers(loop, count=1)[0]
        inflation = SlowServers(factor=3.0, start_ms=10.0, end_ms=None)
        inflation.start(make_context(loop, [server]))
        loop.run(until=20.0)
        assert server.current_service_time_ms == pytest.approx(12.0)
        inflation.stop()
        assert server.current_service_time_ms == pytest.approx(4.0)


class TestTransientSlowdowns:
    """Poisson-arriving slowdowns, as the ``GCPauses`` component schedules them."""

    def test_slowdowns_occur_and_recover(self):
        loop = EventLoop()
        servers = make_servers(loop, count=2)
        GCPauses(mean_interarrival_ms=20.0, mean_duration_ms=5.0, slowdown_factor=4.0).start(
            make_context(loop, servers)
        )
        seen = set()
        for until in range(1, 501):
            loop.run(until=float(until))
            seen.update(round(s.current_service_time_ms, 6) for s in servers)
        assert seen == {4.0, 16.0}

    def test_invalid_parameters(self):
        loop = EventLoop()
        ctx = make_context(loop, make_servers(loop, count=1))
        with pytest.raises(ValueError):
            GCPauses(mean_interarrival_ms=0.0).start(ctx)
        with pytest.raises(ValueError):
            GCPauses(slowdown_factor=0.0).start(ctx)
