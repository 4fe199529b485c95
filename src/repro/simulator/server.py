"""Simulated replica servers.

Each server (mirroring §6 of the paper) maintains a FIFO request queue and
services up to ``concurrency`` requests in parallel (4 by default).  Service
times are drawn from an exponential distribution whose mean is the server's
*current* service time — which a fluctuation process may change over time.
On every response the server piggy-backs :class:`~repro.core.feedback.ServerFeedback`
containing its queue size (recorded just before the response is dispatched)
and its current smoothed service time.

The cluster's storage node (:class:`repro.cluster.node.ClusterNode`) is this
server too: it overrides only where service times come from
(``_draw_service_time``), the oracle's view of them
(``current_service_time_ms``) and its counters (reads and writes in
``_finish_service``, and ``stats``).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Hashable, Mapping

import numpy as np

from ..core import samplers
from ..core.ewma import EWMA
from ..core.feedback import ServerFeedback
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


class SimServer:
    """A FIFO server with bounded service concurrency and feedback.

    Parameters
    ----------
    loop:
        The event loop driving the simulation.
    server_id:
        Stable identifier of this server.
    base_service_time_ms:
        Mean service time when the server is in its nominal state.
    concurrency:
        Number of requests serviced in parallel (paper: 4).
    rng:
        Random generator for service-time draws.
    deterministic:
        When True, service times equal the mean exactly (useful for unit
        tests that need exact arithmetic).
    on_complete:
        Callback ``(request, feedback, service_time)`` invoked when a request
        finishes service (before any network delay back to the client — the
        simulation wires that part).
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
        if base_service_time_ms <= 0:
            raise ValueError("base_service_time_ms must be positive")
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self.loop = loop
        self.server_id = server_id
        self.base_service_time_ms = float(base_service_time_ms)
        self.concurrency = int(concurrency)
        self.rng = rng or np.random.default_rng()
        self._exp = samplers.standard_exponential(self.rng)
        self.deterministic = deterministic
        self.on_complete = on_complete

        self._service_time_multiplier = 1.0
        self._speed_factors: dict[object, float] = {}
        self._queue: deque[Request] = deque()
        self._in_service = 0
        self._service_time_ewma = EWMA(feedback_alpha, initial=base_service_time_ms)
        self._up = True
        self.down_tracker = down_tracker

        # Counters / instrumentation.
        self.requests_received = 0
        self.requests_completed = 0
        self.busy_time_ms = 0.0
        self.max_queue_length = 0
        self.cumulative_queue_samples = 0.0
        self.queue_samples = 0
        self.crashes = 0
        self.enqueued_while_down = 0

    # ------------------------------------------------------------- properties
    @property
    def current_service_time_ms(self) -> float:
        """Mean service time in the server's current state."""
        return self.base_service_time_ms * self._service_time_multiplier

    @property
    def queue_length(self) -> int:
        """Requests waiting for a service slot (excludes in-service)."""
        return len(self._queue)

    @property
    def pending_requests(self) -> int:
        """Waiting plus in-service requests — the queue size C3 feeds back."""
        return len(self._queue) + self._in_service

    @property
    def in_service(self) -> int:
        """Requests currently occupying a service slot."""
        return self._in_service

    @property
    def smoothed_service_time(self) -> float:
        """The server-side EWMA of observed service times (ms)."""
        return self._service_time_ewma.value

    @property
    def is_up(self) -> bool:
        """False while the server is crashed (scenario fault injection)."""
        return self._up

    # --------------------------------------------------------------- controls
    def crash(self) -> None:
        """Take the server down (idempotent).

        A crashed server starts no new service; clients route new requests
        around it.  Requests already being serviced run to completion (their
        finish events are in flight), and requests already on the wire are
        queued and resume when :meth:`restore` brings the server back — the
        simulator has no client-side timeout machinery, so dropping them
        would strand the run.
        """
        if not self._up:
            return
        self._up = False
        self.crashes += 1
        if self.down_tracker is not None:
            self.down_tracker.count += 1

    def restore(self) -> None:
        """Bring a crashed server back and drain whatever queued while down."""
        if self._up:
            return
        self._up = True
        if self.down_tracker is not None:
            self.down_tracker.count -= 1
        self._try_start_service()

    def set_service_time_multiplier(self, multiplier: float, source: object = None) -> None:
        """Change the server's speed (used by fluctuation / GC / compaction).

        A multiplier above 1 slows the server down; below 1 speeds it up.
        Only affects requests whose service starts after the change.

        ``source`` keys the perturbation: independent sources (a GC-pause
        process and a permanent slow-node process, say) each own one factor
        and the effective multiplier is their product, so composed scenario
        components cannot clobber each other's perturbations.  A source
        setting ``1.0`` withdraws its factor.  ``None`` is the shared
        default source (the historical single-writer behavior).
        """
        if multiplier <= 0:
            raise ValueError("multiplier must be positive")
        if multiplier == 1.0:
            self._speed_factors.pop(source, None)
        else:
            self._speed_factors[source] = float(multiplier)
        product = 1.0
        for factor in self._speed_factors.values():
            product *= factor
        self._service_time_multiplier = product

    def set_service_rate_multiplier(self, multiplier: float, source: object = None) -> None:
        """Change speed expressed as a rate multiplier (rate × multiplier)."""
        if multiplier <= 0:
            raise ValueError("multiplier must be positive")
        self.set_service_time_multiplier(1.0 / float(multiplier), source)

    # ------------------------------------------------------------ request path
    def enqueue(self, request: Request) -> None:
        """Accept a request arriving at the server at the current sim time."""
        if not self._up:
            # Only reachable by requests that were already on the wire when
            # the crash hit; they wait in queue until restore().
            self.enqueued_while_down += 1
        self.requests_received += 1
        self.cumulative_queue_samples += self.pending_requests
        self.queue_samples += 1
        self._queue.append(request)
        self.max_queue_length = max(self.max_queue_length, self.pending_requests)
        self._try_start_service()

    def _try_start_service(self) -> None:
        while self._up and self._in_service < self.concurrency and self._queue:
            request = self._queue.popleft()
            self._in_service += 1
            request.started_service_at = self.loop.now
            service_time = self._draw_service_time(request)
            request.service_time = service_time
            self.loop.post(service_time, self._finish_service, request, service_time)

    def _draw_service_time(self, request: Request) -> float:
        mean = self.current_service_time_ms * record_size_factor(request.record_size)
        if self.deterministic:
            return mean
        return mean * self._exp()

    def feedback_snapshot(self) -> ServerFeedback:
        """The queue/service-time feedback piggy-backed on a response.

        Recorded after the completed request has released its service slot
        and *before* the next queued request is started (per §3.1): the
        queue size a departing response reports includes neither the request
        it rides on nor any slot-refill that its departure enables.  The
        batched kernel snapshots the same two values at the same point in
        its completion handler.
        """
        return ServerFeedback(
            queue_size=self.pending_requests,
            service_time=max(self.smoothed_service_time, 1e-3),
            server_id=self.server_id,
        )

    def _finish_service(self, request: Request, service_time: float) -> None:
        self._in_service -= 1
        self.requests_completed += 1
        self.busy_time_ms += service_time
        self._service_time_ewma.update(service_time)
        feedback = self.feedback_snapshot()
        self._try_start_service()
        if self.on_complete is not None:
            self.on_complete(request, feedback, service_time)

    # ------------------------------------------------------------ observation
    def utilization(self, elapsed_ms: float) -> float:
        """Fraction of capacity used over ``elapsed_ms`` of simulated time."""
        if elapsed_ms <= 0:
            return 0.0
        return self.busy_time_ms / (elapsed_ms * self.concurrency)

    def stats(self) -> dict:
        """Summary statistics for reporting."""
        return {
            "server_id": self.server_id,
            "received": self.requests_received,
            "completed": self.requests_completed,
            "queue_length": self.queue_length,
            "pending": self.pending_requests,
            "max_queue_length": self.max_queue_length,
            "mean_queue_on_arrival": (
                self.cumulative_queue_samples / self.queue_samples if self.queue_samples else 0.0
            ),
            "busy_time_ms": self.busy_time_ms,
            "current_service_time_ms": self.current_service_time_ms,
            "up": self._up,
            "crashes": self.crashes,
        }
