"""A Cassandra-like storage node: the simulator's server with a storage engine.

Every node in the cluster is both a storage server (this class) and a
coordinator (see :mod:`repro.cluster.coordinator`).  The storage stage mirrors
Cassandra's read stage: a bounded pool of worker threads pulls requests off a
FIFO queue and each response carries C3's piggy-backed feedback.  That is the
paper's server model in both its testbed (§5) and its simulator (§6), written
once in :class:`repro.replica.ReplicaCore` and run by every backend, so the
node *is* a :class:`~repro.simulator.server.SimServer`: queue, slot refill,
feedback EWMA and snapshot are the core's.  Only the service times differ,
they come from the node's :class:`StorageEngine`.

The cluster's perturbations use the core's own controls: a GC pause is
``crash`` / ``restore`` (the stage stalls, the queue keeps growing; no down
tracker is wired, so no coordinator routes around a pause), as a live
server's ``pause`` is, and a scripted slowdown is
``set_service_time_multiplier``.
"""

from __future__ import annotations

from typing import Callable, Hashable

import numpy as np

from ..core.feedback import ServerFeedback
from ..simulator.engine import EventLoop
from ..simulator.request import Request, RequestKind
from ..simulator.server import SimServer
from .storage import StorageEngine

__all__ = ["ClusterNode"]


class ClusterNode(SimServer):
    """The storage half of a Cassandra-like node.

    ``node_id`` is kept as ``server_id``: also the id of the co-located
    coordinator.  ``concurrency`` is the read-stage worker count
    (Cassandra's ``concurrent_reads`` is 32 by default; the model uses a
    smaller pool because it does not model the OS page cache absorbing most
    of those threads).
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
        # The base service time only seeds the feedback EWMA at 1 ms.
        super().__init__(
            loop, node_id, base_service_time_ms=1.0, concurrency=concurrency, rng=rng,
            on_complete=on_complete, feedback_alpha=feedback_alpha,
        )
        self.storage = storage
        self.reads_completed = 0
        self.writes_completed = 0

    @property
    def current_service_time_ms(self) -> float:
        """An oracle view of the node's expected service time right now."""
        base = self.smoothed_service_time * self._service_time_multiplier
        if self.storage.compacting:
            base *= self.storage.disk.profile.compaction_read_factor
        if not self._up:
            base *= 10.0
        return max(base, 1e-3)

    # Bound here, not only inherited, so that the node's own class names its
    # request path: instrumentation that wraps ``vars(ClusterNode)`` sees it.
    enqueue = SimServer.enqueue

    def _draw_service_time(self, request: Request) -> float:
        if request.kind == RequestKind.WRITE:
            base = self.storage.write_service_time(record_size=request.record_size)
        else:
            base = self.storage.read_service_time(
                concurrent_reads=self._in_service - 1, record_size=request.record_size
            )
        return base * self._service_time_multiplier

    def _finish_service(self, request: Request, service_time: float) -> None:
        if request.kind == RequestKind.WRITE:
            self.writes_completed += 1
        else:
            self.reads_completed += 1
        super()._finish_service(request, service_time)

    def stats(self) -> dict:
        """Per-node counters for reporting."""
        return {
            "node_id": self.server_id,
            "received": self.requests_received,
            "completed": self.requests_completed,
            "reads": self.reads_completed,
            "writes": self.writes_completed,
            "pending": self.pending_requests,
            "max_queue_length": self.max_queue_length,
            "gc_pauses": self.crashes,
            "storage": self.storage.stats(),
        }
