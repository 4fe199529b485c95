"""Unit tests for the discrete-event engine."""

import gc
import heapq
import weakref

import pytest

from repro.simulator.engine import EventLoop, SimulationError


class TestScheduling:
    def test_events_fire_in_time_order(self):
        loop = EventLoop()
        order = []
        loop.schedule(5.0, order.append, "b")
        loop.schedule(1.0, order.append, "a")
        loop.schedule(9.0, order.append, "c")
        loop.run_until_idle()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fire_in_scheduling_order(self):
        loop = EventLoop()
        order = []
        for name in "abcd":
            loop.schedule(1.0, order.append, name)
        loop.run_until_idle()
        assert order == list("abcd")

    def test_clock_advances_to_event_time(self):
        loop = EventLoop()
        seen = []
        loop.schedule(3.5, lambda: seen.append(loop.now))
        loop.run_until_idle()
        assert seen == [3.5]
        assert loop.now == 3.5

    def test_schedule_at_absolute_time(self):
        loop = EventLoop(start_time=10.0)
        fired = []
        loop.schedule_at(12.0, fired.append, True)
        loop.run_until_idle()
        assert fired == [True]

    def test_negative_delay_rejected(self):
        loop = EventLoop()
        with pytest.raises(SimulationError):
            loop.schedule(-1.0, lambda: None)

    def test_scheduling_into_the_past_rejected(self):
        loop = EventLoop(start_time=5.0)
        with pytest.raises(SimulationError):
            loop.schedule_at(1.0, lambda: None)

    def test_kwargs_passed_to_callback(self):
        loop = EventLoop()
        seen = {}
        loop.schedule(1.0, seen.update, value=42)
        loop.run_until_idle()
        assert seen == {"value": 42}


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        loop = EventLoop()
        fired = []
        event = loop.schedule(1.0, fired.append, "x")
        event.cancel()
        loop.run_until_idle()
        assert fired == []

    def test_cancellation_does_not_affect_other_events(self):
        loop = EventLoop()
        fired = []
        event = loop.schedule(1.0, fired.append, "cancelled")
        loop.schedule(2.0, fired.append, "kept")
        event.cancel()
        loop.run_until_idle()
        assert fired == ["kept"]


class TestRun:
    def test_run_until_horizon_stops_before_later_events(self):
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, fired.append, "early")
        loop.schedule(100.0, fired.append, "late")
        loop.run(until=50.0)
        assert fired == ["early"]
        assert loop.now == 50.0
        loop.run_until_idle()
        assert fired == ["early", "late"]

    def test_run_advances_clock_to_horizon_with_no_events(self):
        loop = EventLoop()
        loop.run(until=25.0)
        assert loop.now == 25.0

    def test_max_events_limit(self):
        loop = EventLoop()
        fired = []
        for i in range(10):
            loop.schedule(float(i + 1), fired.append, i)
        processed = loop.run(max_events=4)
        assert processed == 4
        assert len(fired) == 4

    def test_events_scheduled_during_run_are_processed(self):
        loop = EventLoop()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 5:
                loop.schedule(1.0, chain, n + 1)

        loop.schedule(1.0, chain, 0)
        loop.run_until_idle()
        assert fired == list(range(6))

    def test_step_returns_false_on_empty_queue(self):
        assert EventLoop().step() is False

    def test_processed_and_pending_counters(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda: None)
        loop.schedule(2.0, lambda: None)
        assert loop.pending_events == 2
        loop.run_until_idle()
        assert loop.processed_events == 2
        assert loop.pending_events == 0

    def test_reentrant_run_rejected(self):
        loop = EventLoop()

        def nested():
            with pytest.raises(SimulationError):
                loop.run()

        loop.schedule(1.0, nested)
        loop.run_until_idle()

    def test_clear_drops_pending_events(self):
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, fired.append, "x")
        loop.clear()
        loop.run_until_idle()
        assert fired == []


class TestClearReuse:
    """Regression: clear() must reset bookkeeping so a loop can be reused."""

    def test_clear_resets_counters_and_seq(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda: None)
        loop.schedule(2.0, lambda: None).cancel()
        loop.run_until_idle()
        loop.schedule(5.0, lambda: None)
        loop.clear()
        assert loop.pending_events == 0
        assert loop.live_pending_events == 0
        assert loop.processed_events == 0

        # The FIFO sequence restarts, so a reused loop keeps same-time
        # scheduling order starting from a clean slate.
        order = []
        for name in "abc":
            loop.schedule_at(loop.now + 1.0, order.append, name)
        loop.run_until_idle()
        assert order == ["a", "b", "c"]
        assert loop.processed_events == 3

    def test_clear_resets_cancelled_bookkeeping(self):
        loop = EventLoop()
        events = [loop.schedule(float(i + 1), lambda: None) for i in range(10)]
        for event in events:
            event.cancel()
        loop.clear()
        assert loop.pending_events == 0
        assert loop.live_pending_events == 0
        # Cancelling the stale handles after clear() must not corrupt the
        # dead-entry counter of subsequently scheduled work.
        for event in events:
            event.cancel()
        fired = []
        loop.schedule(1.0, fired.append, "fresh")
        assert loop.live_pending_events == 1
        loop.run_until_idle()
        assert fired == ["fresh"]

    def test_clear_inside_callback_leaves_loop_reusable(self):
        loop = EventLoop()
        fired = []

        def clearing():
            fired.append("clearing")
            loop.clear()

        loop.schedule(1.0, clearing)
        loop.schedule(2.0, fired.append, "dropped")
        loop.run_until_idle()
        assert fired == ["clearing"]

        loop.schedule(1.0, fired.append, "second-life")
        loop.run_until_idle()
        assert fired == ["clearing", "second-life"]

    def test_clear_inside_callback_keeps_reentrancy_guard(self):
        loop = EventLoop()
        seen = []

        def clearing_then_nesting():
            loop.clear()
            with pytest.raises(SimulationError):
                loop.run()  # the outer run() is still live
            seen.append("guarded")

        loop.schedule(1.0, clearing_then_nesting)
        loop.run_until_idle()
        assert seen == ["guarded"]


class TestRelease:
    """release() ends a run: the heap goes, the clock and the counters stay."""

    def test_release_drops_pending_work_and_keeps_clock_and_counters(self):
        loop = EventLoop()
        fired = []
        loop.post(1.0, fired.append, "message")
        loop.schedule(2.0, fired.append, "timer")
        loop.run(until=2.0)
        loop.post(1.0, fired.append, "late-message")
        loop.schedule(1.0, fired.append, "late-timer")
        loop.schedule(1.0, fired.append, "cancelled").cancel()
        loop.release()
        assert (loop.pending_events, loop.live_pending_events) == (0, 0)
        assert loop.now == 2.0
        assert loop.processed_events == 2
        assert loop.run_until_idle() == 0
        assert fired == ["message", "timer"]

    def test_release_cancels_queued_handles_and_late_cancel_is_a_noop(self):
        loop = EventLoop()
        handles = [loop.schedule(float(i + 1), lambda: None) for i in range(100)]
        loop.release()
        assert all(handle.cancelled for handle in handles)
        for handle in handles:
            handle.cancel()  # must not reach the loop's dead-entry count
        fresh = loop.schedule(1.0, lambda: None)
        assert (loop.pending_events, loop.live_pending_events) == (1, 1)
        fresh.cancel()
        assert (loop.pending_events, loop.live_pending_events) == (1, 0)

    def test_a_handle_that_cannot_fire_holds_nothing(self):
        """``Event → method → owner → Event`` is a cycle while the handle
        keeps its callback; cancel() and release() both let go of it."""

        class Owner:
            def __init__(self, loop):
                self.handle = loop.schedule(1.0, self.fire)

            def fire(self):  # pragma: no cover - never fires
                raise AssertionError

        def freed_by_refcount(end) -> bool:
            loop = EventLoop()
            owner = Owner(loop)
            probe = weakref.ref(owner)
            end(loop, owner)
            del owner
            return probe() is None

        gc.disable()
        try:
            assert not freed_by_refcount(lambda loop, owner: None)
            assert freed_by_refcount(lambda loop, owner: loop.release())
            # A cancelled entry may outlive the call in the heap (lazy
            # cancellation), so the queue has to go too.
            assert freed_by_refcount(lambda loop, owner: (owner.handle.cancel(), loop.release()))
        finally:
            gc.enable()
            gc.collect()

    def test_released_loop_is_reusable_and_keeps_fifo_order(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda: None)
        loop.run_until_idle()
        loop.post(5.0, lambda: None)
        loop.release()
        order = []
        for name in "abc":
            loop.schedule_at(loop.now + 1.0, order.append, name)
        loop.post(1.0, order.append, "d")
        assert loop.run_until_idle() == 4
        assert order == ["a", "b", "c", "d"]
        assert loop.processed_events == 5


class TestCompaction:
    def test_mass_cancellation_compacts_heap(self):
        loop = EventLoop()
        keep, cancel = [], []
        for i in range(200):
            event = loop.schedule(float(i), lambda: None)
            (cancel if i % 4 else keep).append(event)
        for event in cancel:
            event.cancel()
        # >50% of a >=64-entry heap is dead: the heap must have shrunk.
        assert loop.pending_events < 200
        assert loop.live_pending_events == len(keep)

    def test_compaction_preserves_pending_semantics(self):
        loop = EventLoop()
        fired = []
        survivors = []
        for i in range(300):
            event = loop.schedule(float(i % 7), fired.append, i)
            if i % 5 == 0:
                survivors.append(i)
            else:
                event.cancel()
        loop.run_until_idle()
        assert sorted(fired) == survivors
        # Survivors fire in (time, seq) order.
        times = [(i % 7, i) for i in fired]
        assert times == sorted(times)

    def test_small_heaps_are_not_compacted(self):
        loop = EventLoop()
        events = [loop.schedule(float(i), lambda: None) for i in range(10)]
        for event in events[:9]:
            event.cancel()
        # Below COMPACT_MIN_SIZE, cancelled entries stay queued lazily.
        assert loop.pending_events == 10
        assert loop.live_pending_events == 1


class TestMessageLane:
    """post(): handle-free entries sharing the heap with schedule()'s timers."""

    def test_post_fires_with_args_at_now_plus_delay(self):
        loop = EventLoop(start_time=10.0)
        seen = []
        assert loop.post(2.5, lambda a, b: seen.append((loop.now, a, b)), "x", 7) is None
        loop.run_until_idle()
        assert seen == [(12.5, "x", 7)]
        assert loop.processed_events == 1

    def test_negative_delay_rejected(self):
        loop = EventLoop()
        with pytest.raises(SimulationError):
            loop.post(-0.001, lambda: None)
        assert loop.pending_events == 0

    def test_same_time_fifo_across_both_lanes(self):
        loop = EventLoop()
        order = []
        for i in range(12):
            if i % 3 == 0:
                loop.schedule(1.0, order.append, i)
            elif i % 3 == 1:
                loop.post(1.0, order.append, i)
            else:
                loop.schedule_at(1.0, order.append, i)
        loop.run_until_idle()
        assert order == list(range(12))

    def test_time_order_across_both_lanes(self):
        loop = EventLoop()
        order = []
        loop.post(5.0, order.append, "m5")
        loop.schedule(1.0, order.append, "t1")
        loop.post(3.0, order.append, "m3")
        loop.schedule(4.0, order.append, "t4")
        loop.run_until_idle()
        assert order == ["t1", "m3", "t4", "m5"]

    def test_messages_posted_from_callbacks_are_processed(self):
        loop = EventLoop()
        fired = []

        def hop(n):
            fired.append((loop.now, n))
            if n < 4:
                (loop.post if n % 2 else loop.schedule)(0.5, hop, n + 1)

        loop.post(0.5, hop, 0)
        loop.run_until_idle()
        assert fired == [(0.5 * (n + 1), n) for n in range(5)]

    def test_until_horizon_is_inclusive_and_holds_later_messages(self):
        loop = EventLoop()
        fired = []
        loop.post(1.0, fired.append, "early")
        loop.post(50.0, fired.append, "at-horizon")
        loop.post(50.5, fired.append, "late")
        assert loop.run(until=50.0) == 2
        assert fired == ["early", "at-horizon"]
        assert loop.now == 50.0
        assert loop.pending_events == 1
        loop.run_until_idle()
        assert fired == ["early", "at-horizon", "late"]

    def test_cancelled_timer_past_the_horizon_is_discarded_like_before(self):
        loop = EventLoop()
        fired = []
        loop.post(1.0, fired.append, "m")
        loop.schedule(60.0, fired.append, "cancelled").cancel()
        loop.post(70.0, fired.append, "late")
        loop.run(until=50.0)
        assert fired == ["m"]
        # The dead timer on top was popped; the live message behind it stays.
        assert loop.pending_events == 1
        assert loop.live_pending_events == 1

    def test_max_events_counts_both_lanes(self):
        loop = EventLoop()
        fired = []
        for i in range(10):
            (loop.post if i % 2 else loop.schedule)(float(i + 1), fired.append, i)
        assert loop.run(max_events=5) == 5
        assert fired == [0, 1, 2, 3, 4]
        assert loop.run(max_events=0) == 0
        assert loop.run_until_idle() == 5
        assert fired == list(range(10))

    def test_step_matches_run_on_a_mixed_heap(self):
        def build():
            loop = EventLoop()
            fired = []
            for i in range(20):
                time = float(i % 4)
                if i % 3 == 0:
                    loop.post(time, fired.append, i)
                else:
                    event = loop.schedule(time, fired.append, i)
                    if i % 5 == 0:
                        event.cancel()
            return loop, fired

        stepped, fired_stepped = build()
        ran, fired_ran = build()
        steps = 0
        while stepped.step():
            steps += 1
        ran.run_until_idle()
        assert fired_stepped == fired_ran
        assert steps == ran.processed_events == stepped.processed_events
        assert stepped.now == ran.now
        assert stepped.pending_events == stepped.live_pending_events == 0

    def test_pending_counters_on_a_mixed_heap(self):
        loop = EventLoop()
        loop.post(1.0, lambda: None)
        loop.post(2.0, lambda: None)
        timer = loop.schedule(3.0, lambda: None)
        loop.schedule(4.0, lambda: None)
        assert (loop.pending_events, loop.live_pending_events) == (4, 4)
        timer.cancel()
        assert (loop.pending_events, loop.live_pending_events) == (4, 3)
        loop.run_until_idle()
        assert (loop.pending_events, loop.live_pending_events) == (0, 0)
        assert loop.processed_events == 3

    def test_clear_with_messages_present(self):
        loop = EventLoop()
        fired = []
        loop.post(1.0, fired.append, "message")
        timer = loop.schedule(2.0, fired.append, "timer")
        loop.schedule(3.0, fired.append, "cancelled").cancel()
        loop.clear()
        assert (loop.pending_events, loop.live_pending_events) == (0, 0)
        timer.cancel()  # a stale handle must not touch the fresh bookkeeping
        loop.post(1.0, fired.append, "fresh-message")
        loop.schedule(1.0, fired.append, "fresh-timer")
        assert loop.live_pending_events == 2
        loop.run_until_idle()
        assert fired == ["fresh-message", "fresh-timer"]

    def test_compaction_keeps_messages_and_order(self):
        loop = EventLoop()
        fired = []
        expected = []
        for i in range(300):
            time = float(i % 7)
            if i % 6 == 0:
                loop.post(time, fired.append, i)
                expected.append((time, i))
            else:
                loop.schedule(time, fired.append, i).cancel()
        # 250 of 300 entries were cancelled: compaction ran and kept
        # every message.
        assert loop.pending_events < 300
        assert loop.live_pending_events == len(expected) == 50
        loop.run_until_idle()
        assert fired == [i for _, i in sorted(expected)]


class TestKernelMixedHeap:
    """The batched kernel's typed entries beside timers and messages."""

    @staticmethod
    def _typed(loop, time):
        # What BatchedKernel._push does: (time, seq, code, a, b, c).
        seq = loop._seq
        loop._seq = seq + 1
        entry = (time, seq, 1, 0, 0, 0.0)
        heapq.heappush(loop._heap, entry)
        return entry

    def test_compaction_and_clear_tolerate_every_entry_shape(self):
        loop = EventLoop()
        typed, cancelled = [], []
        for i in range(120):
            if i % 10 == 0:
                typed.append(self._typed(loop, float(i)))
            elif i % 10 == 1:
                loop.post(float(i), lambda: None)
            else:
                cancelled.append(loop.schedule(float(i), lambda: None))
        for event in cancelled:
            event.cancel()
        # 96 of 120 dead: compaction ran and kept the typed entries and the
        # messages (dead entries below COMPACT_MIN_SIZE stay queued lazily).
        assert loop.pending_events < 120
        assert loop.live_pending_events == 24
        assert sum(1 for e in loop._heap if callable(e[2])) == 12
        assert sorted(e for e in loop._heap if type(e[2]) is int) == typed
        assert loop._heap[0] == min(loop._heap)
        live = loop.schedule(500.0, lambda: None)
        loop.clear()
        assert loop.pending_events == 0
        live.cancel()
        assert loop.live_pending_events == 0

    def test_kernel_dispatches_timer_typed_and_message_entries(self):
        """A scenario Event, typed kernel entries and a handle-free message
        on one heap: the kernel fires the message at its time with the same
        live server state the object kernel shows, and — since the probe
        only reads — the runs stay digest-equal."""
        from repro.simulator.simulation import ReplicaSelectionSimulation, SimulationConfig

        def run(kernel):
            config = SimulationConfig(
                kernel=kernel,
                strategy="C3",
                scenario="crash-recovery",
                num_servers=10,
                num_clients=12,
                num_requests=1500,
                seed=11,
            )
            sim = ReplicaSelectionSimulation(config)
            probes = []

            def probe(tag):
                queues = tuple(sim.servers[sid].pending_requests for sid in range(10))
                probes.append((tag, sim.loop.now, queues))
                if tag == "first":
                    sim.loop.post(7.25, probe, "chained")

            sim.loop.post(40.0, probe, "first")
            return sim.run().digest(), probes

        digest_object, probes_object = run("object")
        digest_batched, probes_batched = run("batched")
        assert probes_batched == probes_object
        assert any(sum(queues) > 0 for _, _, queues in probes_batched)
        assert [(tag, now) for tag, now, _ in probes_batched] == [("first", 40.0), ("chained", 47.25)]
        assert digest_batched == digest_object
