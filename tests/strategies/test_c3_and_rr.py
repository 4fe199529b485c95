"""Unit tests for C3 behind the selector API and the rate-limited round-robin."""


from repro.core.config import C3Config
from repro.core.feedback import ServerFeedback
from repro.core.scheduler import C3Scheduler
from repro.strategies import RoundRobinSelector


class TestC3Strategy:
    def _selector(self, **overrides):
        defaults = dict(initial_rate=2.0, rate_delta_ms=10.0, concurrency_weight=1.0)
        defaults.update(overrides)
        return C3Scheduler(C3Config(**defaults))

    def test_submit_and_response_round_trip(self):
        selector = self._selector()
        decision = selector.submit("r", ("a", "b"), 0.0)
        assert decision.sent
        released = selector.on_response(decision.server_id, ServerFeedback(1, 2.0), 3.0, 1.0)
        assert released == []
        assert selector.scorer.total_outstanding() == 0

    def test_backpressure_and_release_via_response(self):
        selector = self._selector(initial_rate=1.0)
        assert selector.submit("r1", ("a",), 0.0).sent
        blocked = selector.submit("r2", ("a",), 0.0)
        assert blocked.backpressured
        assert selector.pending_backlog() == 1
        released = selector.on_response("a", ServerFeedback(1, 2.0), 3.0, 15.0)
        assert released == [("r2", "a")]
        assert selector.pending_backlog() == 0

    def test_drain_backlog_direct(self):
        selector = self._selector(initial_rate=1.0)
        selector.submit("r1", ("a",), 0.0)
        selector.submit("r2", ("a",), 0.0)
        assert selector.drain_backlog(0.0) == []
        released = selector.drain_backlog(25.0)
        assert released == [("r2", "a")]

    def test_next_retry_ms(self):
        selector = self._selector(initial_rate=1.0)
        selector.submit("r1", ("a",), 0.0)
        selector.submit("r2", ("a",), 0.0)
        assert selector.next_retry_ms(0.0) > 0.0
        selector.drain_backlog(25.0)
        assert selector.next_retry_ms(25.0) is None

    def test_duplicate_send_tracked_in_outstanding(self):
        selector = self._selector()
        selector.on_duplicate_send("a", 0.0)
        assert selector.scorer.outstanding("a") == 1
        selector.on_response("a", None, 1.0, 1.0)
        assert selector.scorer.outstanding("a") == 0

    def test_rate_history_available_when_enabled(self):
        selector = C3Scheduler(C3Config(initial_rate=2.0))
        selector.record_history = True
        selector.submit("r", ("a",), 0.0)
        assert selector.rate_history("a") == []
        assert "a" in selector.sending_rates()

    def test_stats_shape(self):
        selector = self._selector()
        selector.submit("r", ("a",), 0.0)
        stats = selector.stats()
        assert stats["submitted"] == 1 and stats["sent"] == 1

    def test_rate_control_disabled_never_backpressures(self):
        selector = C3Scheduler(C3Config(rate_control_enabled=False, initial_rate=1.0))
        decisions = [selector.submit(f"r{i}", ("a",), 0.0) for i in range(10)]
        assert all(d.sent for d in decisions)


class TestRoundRobinSelector:
    def test_rotates_through_replicas(self):
        selector = RoundRobinSelector(C3Config(initial_rate=100.0))
        order = [selector.submit(i, ("a", "b", "c"), 0.0).server_id for i in range(6)]
        assert order == ["a", "b", "c", "a", "b", "c"]

    def test_separate_cursor_per_group(self):
        selector = RoundRobinSelector(C3Config(initial_rate=100.0))
        first_group = selector.submit(0, ("a", "b"), 0.0).server_id
        other_group = selector.submit(1, ("x", "y"), 0.0).server_id
        assert first_group == "a" and other_group == "x"

    def test_skips_rate_limited_replica(self):
        selector = RoundRobinSelector(C3Config(initial_rate=1.0, rate_delta_ms=10.0))
        first = selector.submit(0, ("a", "b"), 0.0)
        second = selector.submit(1, ("a", "b"), 0.0)
        assert {first.server_id, second.server_id} == {"a", "b"}
        third = selector.submit(2, ("a", "b"), 0.0)
        assert third.backpressured

    def test_backlog_released_after_window(self):
        selector = RoundRobinSelector(C3Config(initial_rate=1.0, rate_delta_ms=10.0))
        selector.submit(0, ("a",), 0.0)
        blocked = selector.submit(1, ("a",), 0.0)
        assert blocked.backpressured
        released = selector.on_response("a", None, 1.0, 15.0)
        assert [req for req, _ in released] == [1]
        assert selector.pending_backlog() == 0

    def test_unlimited_variant_never_backpressures(self):
        selector = RoundRobinSelector(C3Config(initial_rate=1.0), rate_limited=False)
        decisions = [selector.submit(i, ("a",), 0.0) for i in range(5)]
        assert all(d.sent for d in decisions)
        assert selector.drain_backlog(0.0) == []

    def test_next_retry_none_when_empty(self):
        selector = RoundRobinSelector(C3Config())
        assert selector.next_retry_ms(0.0) is None

    def test_stats(self):
        selector = RoundRobinSelector(C3Config(initial_rate=1.0))
        selector.submit(0, ("a",), 0.0)
        selector.submit(1, ("a",), 0.0)
        stats = selector.stats()
        assert stats["submitted"] == 2 and stats["backpressured"] == 1
