"""Simulated replica servers.

Each server (mirroring §6 of the paper) maintains a FIFO request queue and
services up to ``concurrency`` requests in parallel (4 by default).  Service
times are drawn from an exponential distribution whose mean is the server's
*current* service time — which a fluctuation process may change over time.
On every response the server piggy-backs :class:`~repro.core.feedback.ServerFeedback`
containing its queue size (recorded just before the response is dispatched)
and its current smoothed service time.

That server model is :class:`repro.replica.ReplicaCore`, which the live
replica server runs too.  :class:`SimServer` adds only what needs numpy or
the simulator's requests: ``Generator`` draws, the record-size scale, the
``ServerFeedback`` snapshot and the request's service timestamps.

The cluster's storage node (:class:`repro.cluster.node.ClusterNode`) is this
server with storage-engine service times.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Mapping

import numpy as np

from ..core import samplers
from ..core.feedback import ServerFeedback
from ..replica import ReplicaCore
from .engine import EventLoop
from .request import Request, record_size_factor

__all__ = ["DownServerTracker", "SimServer", "server_state_reader"]


class DownServerTracker:
    """Shared count of currently-crashed servers.

    One instance is shared by every server and client of a simulation so the
    client request path can skip all liveness filtering with a single integer
    check when nothing is down (the overwhelmingly common case).
    """

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


def server_state_reader(servers: Mapping[Hashable, Any]) -> Callable[[Hashable], tuple[float, float]]:
    """The ``server_state_fn`` handed to oracle-style selectors.

    Reads ``(pending_requests, current_service_time_ms)`` off the live
    servers (or cluster nodes).  It closes over the server table only: a
    bound method of the simulation here would tie every selector back to the
    simulation that owns it.
    """

    def server_state(server_id: Hashable) -> tuple[float, float]:
        server = servers[server_id]
        return (server.pending_requests, server.current_service_time_ms)

    return server_state


class SimServer(ReplicaCore):
    """The replica server model on the simulator's event loop.

    ``rng`` draws the service times.  ``on_complete`` is called as a request
    finishes service, before any network delay back to the client (the
    simulation wires that part).  :meth:`crash` keeps what it queues: the
    simulator has no client-side timeout machinery, so dropping requests
    already on the wire would strand the run.
    """

    def __init__(
        self,
        loop: EventLoop,
        server_id: Hashable,
        base_service_time_ms: float = 4.0,
        concurrency: int = 4,
        rng: np.random.Generator | None = None,
        deterministic: bool = False,
        on_complete: Callable[[Request, ServerFeedback, float], None] | None = None,
        feedback_alpha: float = 0.9,
        down_tracker: DownServerTracker | None = None,
    ) -> None:
        self.rng = rng or np.random.default_rng()
        super().__init__(
            loop, server_id, base_service_time_ms, concurrency, deterministic,
            samplers.standard_exponential(self.rng), on_complete, feedback_alpha, down_tracker,
        )

    # Bound here, not only inherited, so that this class names its request
    # path: instrumentation that wraps ``vars(SimServer)`` sees it.
    enqueue = ReplicaCore.enqueue
    _finish_service = ReplicaCore._finish_service

    def _begin_service(self, request: Request) -> float:
        request.started_service_at = self.loop.now
        service_time = request.service_time = self._draw_service_time(request)
        return service_time

    def _draw_service_time(self, request: Request) -> float:
        mean = self.current_service_time_ms * record_size_factor(request.record_size)
        if self.deterministic:
            return mean
        return mean * self._exp()

    def feedback_snapshot(self) -> ServerFeedback:
        """The core's ``(queue_size, service_time)`` as a :class:`ServerFeedback`."""
        queue_size, service_time = ReplicaCore.feedback_snapshot(self)
        return ServerFeedback(queue_size, service_time, self.server_id)
