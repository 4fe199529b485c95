"""Unit tests for the service-time fluctuation processes."""

import numpy as np
import pytest

from repro.scenarios.processes import BimodalFluctuation, LatencyInflation, TransientSlowdowns
from repro.simulator.engine import EventLoop
from repro.simulator.server import SimServer


def make_servers(loop, count=4):
    return [
        SimServer(loop, server_id=i, base_service_time_ms=4.0, deterministic=True, rng=np.random.default_rng(i))
        for i in range(count)
    ]


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

    def test_mean_service_rate_factor(self):
        loop = EventLoop()
        fluct = BimodalFluctuation(loop, [], rate_multiplier=3.0)
        assert fluct.mean_service_rate_factor == 2.0

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
    def test_episode_slows_then_restores(self):
        loop = EventLoop()
        server = make_servers(loop, count=1)[0]
        inflation = LatencyInflation(loop, server, episodes=[(10.0, 20.0, 5.0)])
        inflation.start()
        loop.run(until=15.0)
        assert server.current_service_time_ms == pytest.approx(20.0)
        loop.run(until=25.0)
        assert server.current_service_time_ms == pytest.approx(4.0)

    def test_invalid_episode_rejected(self):
        loop = EventLoop()
        server = make_servers(loop, count=1)[0]
        with pytest.raises(ValueError):
            LatencyInflation(loop, server, episodes=[(10.0, 5.0, 2.0)])
        with pytest.raises(ValueError):
            LatencyInflation(loop, server, episodes=[(1.0, 2.0, 0.0)])


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
        inflation = LatencyInflation(loop, server, episodes=[(50.0, 150.0, 5.0)])
        inflation.start()
        loop.run(until=100.0)
        assert server.current_service_time_ms == pytest.approx(20.0)
        loop.clear()
        inflation.stop()
        assert server.current_service_time_ms == pytest.approx(4.0)
        assert inflation.active_episodes == 0

    def test_transient_slowdown_straddling_horizon_is_reset_by_stop(self):
        loop = EventLoop()
        servers = make_servers(loop, count=2)
        slowdowns = TransientSlowdowns(
            loop, servers, mean_interarrival_ms=5.0, mean_duration_ms=1000.0,
            slowdown_factor=4.0, rng=np.random.default_rng(1),
        )
        slowdowns.start()
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
        inflation = LatencyInflation(loop, server, episodes=[(10.0, None, 3.0)])
        inflation.start()
        loop.run(until=20.0)
        assert server.current_service_time_ms == pytest.approx(12.0)
        inflation.stop()
        assert server.current_service_time_ms == pytest.approx(4.0)


class TestTransientSlowdowns:
    def test_slowdowns_occur_and_recover(self):
        loop = EventLoop()
        servers = make_servers(loop, count=2)
        events = []
        slowdowns = TransientSlowdowns(
            loop,
            servers,
            mean_interarrival_ms=20.0,
            mean_duration_ms=5.0,
            slowdown_factor=4.0,
            rng=np.random.default_rng(3),
            on_event=lambda server, t, d: events.append((server.server_id, t)),
        )
        slowdowns.start()
        loop.run(until=500.0)
        assert slowdowns.events > 0
        assert len(events) == slowdowns.events

    def test_invalid_parameters(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            TransientSlowdowns(loop, [], mean_interarrival_ms=0.0)
        with pytest.raises(ValueError):
            TransientSlowdowns(loop, [], slowdown_factor=0.0)
