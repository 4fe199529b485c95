"""A Cassandra-like storage node: FIFO read/write stage + feedback.

Every node in the cluster is both a storage server (this class) and a
coordinator (see :mod:`repro.cluster.coordinator`).  The storage stage mirrors
Cassandra's read stage: a bounded pool of worker threads pulls requests off a
queue, service times come from the node's :class:`StorageEngine`, and the
response carries C3's piggy-backed feedback.  GC pauses stall the stage; the
queue keeps growing while the node is paused.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable

import numpy as np

from ..core.ewma import EWMA
from ..core.feedback import ServerFeedback
from ..simulator.engine import EventLoop
from ..simulator.request import Request, RequestKind
from .storage import StorageEngine

__all__ = ["ClusterNode"]


class ClusterNode:
    """The storage half of a Cassandra-like node.

    Parameters
    ----------
    loop:
        Shared event loop.
    node_id:
        Stable identifier (also the coordinator id of the co-located
        coordinator).
    storage:
        The node's storage engine.
    concurrency:
        Read-stage worker count (Cassandra's ``concurrent_reads`` is 32 by
        default; the model uses a smaller pool because it does not model the
        OS page cache absorbing most of those threads).
    on_complete:
        Callback ``(request, feedback, service_time)`` invoked when a request
        finishes service.
    rng:
        Random generator.
    """

    def __init__(
        self,
        loop: EventLoop,
        node_id: Hashable,
        storage: StorageEngine,
        concurrency: int = 8,
        on_complete: Callable[[Request, ServerFeedback, float], None] | None = None,
        feedback_alpha: float = 0.9,
        rng: np.random.Generator | None = None,
    ) -> None:
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self.loop = loop
        self.node_id = node_id
        self.storage = storage
        self.concurrency = int(concurrency)
        self.on_complete = on_complete
        self.rng = rng or np.random.default_rng()

        self._queue: deque[Request] = deque()
        self._in_service = 0
        self._gc_paused = False
        self._slowdown = 1.0
        self._service_time_ewma = EWMA(feedback_alpha, initial=1.0)

        self.requests_received = 0
        self.requests_completed = 0
        self.reads_completed = 0
        self.writes_completed = 0
        self.busy_time_ms = 0.0
        self.max_queue_length = 0
        self.gc_pauses = 0

    # ------------------------------------------------------------- properties
    @property
    def queue_length(self) -> int:
        """Requests waiting for a worker (excludes in-service)."""
        return len(self._queue)

    @property
    def pending_requests(self) -> int:
        """Waiting plus in-service requests (the queue-size feedback)."""
        return len(self._queue) + self._in_service

    @property
    def in_service(self) -> int:
        """Requests currently being serviced."""
        return self._in_service

    @property
    def smoothed_service_time(self) -> float:
        """EWMA of recent service times (ms) — the 1/μ feedback."""
        return self._service_time_ewma.value

    @property
    def iowait(self) -> float:
        """The node's current iowait (delegated to the storage engine)."""
        return self.storage.iowait

    @property
    def slowdown(self) -> float:
        """The currently applied scripted slowdown factor (1.0 = none)."""
        return self._slowdown

    @property
    def current_service_time_ms(self) -> float:
        """An oracle view of the node's expected service time right now."""
        base = self.smoothed_service_time * self._slowdown
        if self.storage.compacting:
            base *= self.storage.disk.profile.compaction_read_factor
        if self._gc_paused:
            base *= 10.0
        return max(base, 1e-3)

    # ----------------------------------------------------------- scripted slowdown
    def set_slowdown(self, factor: float) -> None:
        """Multiply all service times by ``factor`` (tc-style latency inflation).

        Used by the Figure 13 experiment, which artificially inflates a
        tracked node's latencies three times during a run.
        """
        if factor <= 0:
            raise ValueError("factor must be positive")
        self._slowdown = float(factor)

    def clear_slowdown(self) -> None:
        """Remove any scripted slowdown."""
        self._slowdown = 1.0

    # --------------------------------------------------------------- GC pauses
    def begin_gc_pause(self) -> None:
        """Stall the read stage (newly queued requests wait)."""
        self._gc_paused = True
        self.gc_pauses += 1

    def end_gc_pause(self) -> None:
        """Resume the read stage and drain whatever queued up."""
        self._gc_paused = False
        self._try_start_service()

    # --------------------------------------------------------------- compaction
    def begin_compaction(self) -> None:
        """Forward a compaction start to the storage engine."""
        self.storage.begin_compaction()

    def end_compaction(self) -> None:
        """Forward a compaction end to the storage engine."""
        self.storage.end_compaction()

    # ------------------------------------------------------------ request path
    def enqueue(self, request: Request) -> None:
        """Accept a request arriving at this node."""
        self.requests_received += 1
        self._queue.append(request)
        self.max_queue_length = max(self.max_queue_length, self.pending_requests)
        self._try_start_service()

    def _try_start_service(self) -> None:
        while not self._gc_paused and self._in_service < self.concurrency and self._queue:
            request = self._queue.popleft()
            self._in_service += 1
            request.started_service_at = self.loop.now
            service_time = self._draw_service_time(request)
            request.service_time = service_time
            self.loop.post(service_time, self._finish_service, request, service_time)

    def _draw_service_time(self, request: Request) -> float:
        if request.kind == RequestKind.WRITE:
            base = self.storage.write_service_time(record_size=request.record_size)
        else:
            base = self.storage.read_service_time(
                concurrent_reads=self._in_service - 1, record_size=request.record_size
            )
        return base * self._slowdown

    def _finish_service(self, request: Request, service_time: float) -> None:
        self._in_service -= 1
        self.requests_completed += 1
        if request.kind == RequestKind.WRITE:
            self.writes_completed += 1
        else:
            self.reads_completed += 1
        self.busy_time_ms += service_time
        self._service_time_ewma.update(service_time)
        feedback = ServerFeedback(
            queue_size=self.pending_requests,
            service_time=max(self.smoothed_service_time, 1e-3),
            server_id=self.node_id,
        )
        self._try_start_service()
        if self.on_complete is not None:
            self.on_complete(request, feedback, service_time)

    # ------------------------------------------------------------ observation
    def stats(self) -> dict:
        """Per-node counters for reporting."""
        return {
            "node_id": self.node_id,
            "received": self.requests_received,
            "completed": self.requests_completed,
            "reads": self.reads_completed,
            "writes": self.writes_completed,
            "pending": self.pending_requests,
            "max_queue_length": self.max_queue_length,
            "gc_pauses": self.gc_pauses,
            "storage": self.storage.stats(),
        }
