"""A minimal discrete-event simulation engine.

The paper's §6 evaluation uses a purpose-built discrete-event simulator
("absim"); this module provides the equivalent substrate from scratch: a
priority-queue driven event loop with cancellable timers.  Time is a float in
milliseconds throughout the code base.

Three hot-path details matter at scale:

* The heap stores tuples led by ``(time, seq)`` rather than :class:`Event`
  objects, so every sift comparison is a C-level tuple comparison instead of
  a Python-level ``__lt__`` call (``seq`` is unique, so the slots after it
  are never compared).
* There are two lanes onto that one heap, chosen by the call site.  A
  *timer* (:meth:`EventLoop.schedule` / :meth:`EventLoop.schedule_at`) hands
  back an :class:`Event` the caller can cancel and may carry keyword
  arguments; its heap entry is ``(time, seq, None, event)``.  A *message*
  (:meth:`EventLoop.post`) is fire-and-forget — a request hop, a service
  completion, the next arrival — and is by far the common case (>99 % of
  the events of a run); its heap entry ``(time, seq, callback, args)`` is
  all there is, no :class:`Event` is allocated.  Both lanes draw ``seq``
  from one counter, so (time, seq) order does not depend on the lane.
  The batched kernel (:mod:`repro.simulator.kernel`) pushes a third shape
  onto the same heap, ``(time, seq, code, a, b, c)`` with a small-int
  ``code``, and runs its own dispatch loop over all three; slot 2 tells
  them apart, which is all :meth:`EventLoop.clear` and compaction look at.
  :meth:`EventLoop.step`/:meth:`EventLoop.run` are only safe while no typed
  entry is queued (before the kernel starts or after it drains).
* Cancellation is lazy: a cancelled event stays in the heap (popping from
  the middle of a binary heap is O(n)) and is discarded when it reaches the
  top.  Workloads that cancel aggressively — speculative retries, timeout
  timers that almost always get cancelled — can accumulate a large fraction
  of dead entries, inflating every subsequent push/pop by the extra heap
  depth.  The loop therefore tracks the number of cancelled-but-queued
  events and compacts the heap in place (filter + re-heapify, O(n)) once
  dead entries exceed half of a sufficiently large heap, which keeps the
  amortised cost of cancellation O(log n) without ever changing observable
  event ordering.

Lifecycle.  A timer handle whose callback is a bound method of the object
that keeps the handle is a reference cycle (``Event → method → owner →
Event``), and a finished simulation full of those is freed only by the cycle
collector.  So an :class:`Event` that can no longer fire holds nothing:
:meth:`Event.cancel` lets go of callback and arguments at once, and owners
drop a handle when it fires (``self._retry_timer = None`` first thing in the
callback).  Two calls end a loop's work.  :meth:`EventLoop.release` is the
end of a *run*: it drops the heap and cancels every queued timer but keeps
``now`` and ``processed_events`` for whoever reads the loop afterwards — the
simulators call it last thing in ``run()``, so that a finished simulation is
freed by reference counting alone.  :meth:`EventLoop.clear` is a *reset*:
``release()`` plus zeroed counters, for a loop that is about to be reused.
"""

from __future__ import annotations

import sys
from heapq import heapify, heappop, heappush
from math import inf
from typing import Any, Callable

__all__ = ["Event", "EventLoop", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for invalid interactions with the event loop."""


def _never(*args: Any, **kwargs: Any) -> None:
    """Callback of an :class:`Event` that was cancelled or released."""


class Event:
    """A scheduled callback.

    Events are created via :meth:`EventLoop.schedule` /
    :meth:`EventLoop.schedule_at` and may be cancelled before they fire.
    """

    __slots__ = ("time", "seq", "callback", "args", "kwargs", "cancelled", "_loop")

    def __init__(self, time: float, seq: int, callback: Callable, args: tuple, kwargs: dict) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.kwargs = kwargs
        self.cancelled = False
        self._loop: "EventLoop | None" = None

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        if self.cancelled:
            return
        loop = self._loop
        self._drop()
        if loop is not None:
            loop._note_cancelled()

    def _drop(self) -> None:
        """Mark the event as never firing and let go of everything it holds."""
        self.cancelled = True
        self._loop = None
        self.callback = _never
        self.args = ()
        self.kwargs = {}

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"Event(t={self.time:.3f}, seq={self.seq}, fn={name}, cancelled={self.cancelled})"


class EventLoop:
    """A deterministic single-threaded event loop.

    Events scheduled for the same time fire in scheduling order (FIFO), which
    keeps runs reproducible for a fixed random seed.
    """

    #: Heaps smaller than this are never compacted (filtering a tiny heap
    #: costs more in constant factors than the dead entries do).
    COMPACT_MIN_SIZE = 64
    #: Compact when cancelled entries exceed this fraction of the heap.
    COMPACT_DEAD_FRACTION = 0.5

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        # Heap entries are (time, seq, None, event) for timers and
        # (time, seq, callback, args) for messages: see the module docstring.
        self._heap: list[tuple[float, int, Any, Any]] = []
        # Next FIFO sequence number.  A plain int (incremented inline) rather
        # than an itertools.count object: the batched kernel shares this
        # counter by reading/writing the attribute directly, and the inline
        # increment shaves the C-call overhead off every scheduled event.
        self._seq = 0
        self._processed = 0
        self._running = False
        self._dead = 0  # cancelled events still sitting in the heap

    # ------------------------------------------------------------------ clock
    @property
    def now(self) -> float:
        """Current simulation time in milliseconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events that have fired so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._heap)

    @property
    def live_pending_events(self) -> int:
        """Number of queued events that are not cancelled."""
        return len(self._heap) - self._dead

    # ------------------------------------------------------------- scheduling
    def schedule(self, delay: float, callback: Callable, *args, **kwargs) -> Event:
        """Schedule ``callback`` to run ``delay`` ms from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args, **kwargs)

    def schedule_at(self, time: float, callback: Callable, *args, **kwargs) -> Event:
        """Schedule ``callback`` to run at absolute time ``time`` ms."""
        if time < self._now:
            raise SimulationError(f"cannot schedule into the past (time={time}, now={self._now})")
        seq = self._seq
        self._seq = seq + 1
        event = Event(float(time), seq, callback, args, kwargs)
        event._loop = self
        heappush(self._heap, (event.time, seq, None, event))
        return event

    def post(self, delay: float, callback: Callable, *args) -> None:
        """Deliver ``callback(*args)`` ``delay`` ms from now, fire-and-forget.

        The lane for message hops: no :class:`Event` is created, so the call
        cannot be cancelled and takes no keyword arguments.  Anything that
        keeps the handle (hedge, retry and scenario timers) belongs on
        :meth:`schedule`.  ``delay`` is used as given: callers pass floats.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (self._now + delay, seq, callback, args))

    # ------------------------------------------------------------ compaction
    def _note_cancelled(self) -> None:
        """Bookkeeping hook called by :meth:`Event.cancel`."""
        self._dead += 1
        heap = self._heap
        if len(heap) >= self.COMPACT_MIN_SIZE and self._dead > len(heap) * self.COMPACT_DEAD_FRACTION:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, preserving (time, seq) order.

        Mutates ``self._heap`` in place so that aliases held by a running
        :meth:`run` loop stay valid.
        """
        # Timers carry None in slot 2; messages (and the batched kernel's
        # typed entries) carry a callback (an int code) and are always live.
        self._heap[:] = [entry for entry in self._heap if entry[2] is not None or not entry[3].cancelled]
        heapify(self._heap)
        self._dead = 0

    # -------------------------------------------------------------- execution
    def step(self) -> bool:
        """Fire the next pending (non-cancelled) event.

        Returns True if an event fired, False when the queue is empty.
        """
        while self._heap:
            time, _seq, callback, args = heappop(self._heap)
            if callback is None:
                event = args
                event._loop = None
                if event.cancelled:
                    self._dead -= 1
                    continue
            self._now = time
            self._processed += 1
            if callback is None:
                event.callback(*event.args, **event.kwargs)
            else:
                callback(*args)
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired.  Returns the number of events processed by
        this call.
        """
        if self._running:
            raise SimulationError("event loop is already running (re-entrant run())")
        self._running = True
        fired = 0
        # The inner loop is the simulator's hottest path (one iteration per
        # simulated event); keep bound-method and module lookups out of it.
        heap = self._heap
        horizon = inf if until is None else until
        limit = sys.maxsize if max_events is None else max_events
        try:
            while heap and fired < limit:
                time, _seq, callback, args = heap[0]
                if callback is not None:
                    # A message: nothing to cancel, no handle to release.
                    if time > horizon:
                        break
                    heappop(heap)
                    self._now = time
                    self._processed += 1
                    fired += 1
                    callback(*args)
                    continue
                event = args
                if event.cancelled:
                    heappop(heap)
                    event._loop = None
                    self._dead -= 1
                    continue
                if time > horizon:
                    break
                heappop(heap)
                event._loop = None
                self._now = time
                self._processed += 1
                fired += 1
                event.callback(*event.args, **event.kwargs)
            if until is not None and (not heap or heap[0][0] > until):
                # Advance the clock to the requested horizon even if the last
                # event fired earlier, so periodic observers see a full window.
                self._now = max(self._now, until)
        finally:
            self._running = False
        return fired

    def run_until_idle(self, max_events: int | None = None) -> int:
        """Run until no events remain (or ``max_events`` fired)."""
        return self.run(until=None, max_events=max_events)

    def release(self) -> None:
        """Drop every pending event; keep the clock and the counters.

        The end of a run: queued timers are cancelled (their handles let go
        of their callbacks, and a late :meth:`Event.cancel` on one is a
        no-op), queued messages are forgotten, and ``now`` /
        ``processed_events`` stay readable.  The heap is emptied in place,
        so aliases held by a running :meth:`run` or by the batched kernel
        stay valid, and the loop accepts new events afterwards.
        """
        for entry in self._heap:
            if entry[2] is None:
                entry[3]._drop()
        self._heap.clear()
        self._dead = 0

    def clear(self) -> None:
        """Drop every pending event and reset the loop for reuse.

        :meth:`release` plus a reset of the fired-event counter and the FIFO
        sequence counter, so a loop can be safely reused between scenarios.
        The re-entrancy guard is left alone: ``run()`` owns it via
        try/finally — even a callback calling ``clear()`` mid-run must not
        open the door to a nested ``run()``.  The clock is also intentionally
        left where it is: callers that want a fresh timeline should build a
        fresh :class:`EventLoop`.
        """
        self.release()
        self._processed = 0
        self._seq = 0

