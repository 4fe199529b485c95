"""Unit tests for the backpressure queues."""

import pytest

from repro.core.backpressure import BacklogEntry, BacklogQueue, BackpressureQueues


class TestBacklogQueue:
    def test_push_pop_fifo(self):
        queue = BacklogQueue("g")
        for i in range(3):
            queue.push(BacklogEntry(request=i, replica_group=("a",), enqueued_at=float(i)))
        assert [queue.pop(now=10.0).request for _ in range(3)] == [0, 1, 2]

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            BacklogQueue("g").pop()

    def test_wait_time_accounting(self):
        queue = BacklogQueue("g")
        queue.push(BacklogEntry(request="r", replica_group=("a",), enqueued_at=5.0))
        queue.pop(now=15.0)
        assert queue.total_wait_ms == pytest.approx(10.0)

    def test_max_depth_tracked(self):
        queue = BacklogQueue("g")
        for i in range(4):
            queue.push(BacklogEntry(request=i, replica_group=("a",), enqueued_at=0.0))
        queue.pop(0.0)
        assert queue.max_depth == 4

    def test_bool_and_len(self):
        queue = BacklogQueue("g")
        assert not queue
        queue.push(BacklogEntry(request=1, replica_group=("a",), enqueued_at=0.0))
        assert queue and len(queue) == 1


class TestBackpressureQueues:
    def test_group_key_is_order_insensitive(self):
        assert BackpressureQueues.group_key(["a", "b"]) == BackpressureQueues.group_key(["b", "a"])

    def test_group_key_empty_rejected(self):
        with pytest.raises(ValueError):
            BackpressureQueues.group_key([])

    def test_enqueue_creates_per_group_queues(self):
        queues = BackpressureQueues()
        queues.enqueue("r1", ("a", "b"), now=0.0)
        queues.enqueue("r2", ("b", "c"), now=0.0)
        queues.enqueue("r3", ("b", "a"), now=0.0)
        assert queues.pending() == 3
        assert queues.stats()["groups"] == 2
        assert queues.stats()["backpressure_events"] == 3

    def test_drain_ready_releases_placeable_entries(self):
        queues = BackpressureQueues()
        queues.enqueue("r1", ("a",), now=0.0)
        queues.enqueue("r2", ("a",), now=0.0)
        released = queues.drain_ready(now=1.0, can_place=lambda entry, now: "a")
        assert released == [("r1", "a"), ("r2", "a")]
        assert queues.pending() == 0

    def test_drain_ready_stops_at_blocked_head(self):
        queues = BackpressureQueues()
        queues.enqueue("r1", ("a",), now=0.0)
        queues.enqueue("r2", ("a",), now=0.0)
        released = queues.drain_ready(now=1.0, can_place=lambda entry, now: None)
        assert released == []
        assert queues.pending() == 2

    def test_one_blocked_group_does_not_block_others(self):
        """Per-replica-group isolation (§4)."""
        queues = BackpressureQueues()
        queues.enqueue("blocked", ("a", "b"), now=0.0)
        queues.enqueue("free", ("c", "d"), now=0.0)

        def can_place(entry, now):
            return "c" if "c" in entry.replica_group else None

        released = queues.drain_ready(now=1.0, can_place=can_place)
        assert released == [("free", "c")]
        assert queues.pending() == 1

    def test_cancel_withdraws_one_request_and_keeps_pending_exact(self):
        queues = BackpressureQueues()
        for request in ("r1", "r2", "r3"):
            queues.enqueue(request, ("a",), now=0.0)
        queues.enqueue("r4", ("b",), now=0.0)
        assert queues.cancel("r2") and queues.cancel("r4")
        assert not queues.cancel("r2") and not queues.cancel("never")
        assert queues.pending() == 2
        released = queues.drain_ready(now=1.0, can_place=lambda entry, now: "a")
        assert released == [("r1", "a"), ("r3", "a")]
        assert queues.pending() == 0

    def test_mean_wait_zero_when_nothing_dequeued(self):
        queues = BackpressureQueues()
        assert queues.stats()["mean_wait_ms"] == 0.0
        queues.enqueue("r1", ("a",), now=0.0)
        assert queues.stats()["mean_wait_ms"] == 0.0

    def test_backpressure_events_count_every_enqueue(self):
        """Released and cancelled requests were each backpressured once."""
        queues = BackpressureQueues()
        for i, group in enumerate([("a",), ("b",), ("a",), ("b", "c")]):
            queues.enqueue(f"r{i}", group, now=0.0)
        assert queues.cancel("r1")
        queues.drain_ready(now=1.0, can_place=lambda e, n: "a" if "a" in e.replica_group else None)
        stats = queues.stats()
        assert stats["backpressure_events"] == stats["total_enqueued"] == 4
        assert stats["total_dequeued"] == 2 and stats["pending"] == 1

    def test_stats_aggregation(self):
        queues = BackpressureQueues()
        queues.enqueue("r1", ("a",), now=0.0)
        queues.enqueue("r2", ("b",), now=0.0)
        queues.drain_ready(now=4.0, can_place=lambda e, n: e.replica_group[0])
        stats = queues.stats()
        assert stats["groups"] == 2
        assert stats["pending"] == 0
        assert stats["total_enqueued"] == 2
        assert stats["total_dequeued"] == 2
        assert stats["backpressure_events"] == 2
        assert stats["mean_wait_ms"] == pytest.approx(4.0)
