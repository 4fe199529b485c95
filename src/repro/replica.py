"""The replica server model, written once for every backend.

C3 ranks replicas on what each server reports with every response (§3.1):
its queue size as the response leaves, and an EWMA of its service time.
:class:`ReplicaCore` is that server: a FIFO queue, ``concurrency`` service
slots, per-source speed factors, a crash/restore stall, the feedback and
the counters, driven by any loop with ``now`` and ``post(delay, fn, *args)``
in ms.  The simulator's ``SimServer`` (and the cluster's node, which is one)
runs it on the simulator's event loop; the live ``ReplicaServer`` is an
asyncio shell over it.  It imports only the standard library, so a live
server process loads no numpy.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Hashable

__all__ = ["ReplicaCore"]


class ReplicaCore:
    """A FIFO server with bounded service concurrency and §3.1 feedback.

    ``base_service_time_ms`` is the nominal mean service time, which also
    seeds the feedback EWMA (weight ``feedback_alpha`` on the newest time); a
    service takes ``mean * exp()``, or exactly the mean when
    ``deterministic``.  ``on_complete(request, feedback, service_time)`` is
    called as each request finishes, and ``down_tracker`` (anything with a
    ``count``) counts the stalled servers it is shared by.
    """

    def __init__(
        self,
        loop: Any,
        server_id: Hashable,
        base_service_time_ms: float = 4.0,
        concurrency: int = 4,
        deterministic: bool = False,
        exp: Callable[[], float] | None = None,
        on_complete: Callable[[Any, Any, float], None] | None = None,
        feedback_alpha: float = 0.9,
        down_tracker: Any = None,
    ) -> None:
        if base_service_time_ms <= 0:
            raise ValueError("base_service_time_ms must be positive")
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if not 0.0 < feedback_alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {feedback_alpha}")
        self.loop = loop
        self.server_id = server_id
        self.base_service_time_ms = float(base_service_time_ms)
        self.concurrency = int(concurrency)
        self.deterministic = deterministic
        self._exp = exp
        self.on_complete = on_complete

        self._service_time_multiplier = 1.0
        self._speed_factors: dict[object, float] = {}
        self._queue: deque[Any] = deque()
        self._in_service = 0
        self.feedback_alpha = float(feedback_alpha)
        #: The EWMA of observed service times (ms), seeded at the nominal time.
        self.smoothed_service_time = self.base_service_time_ms
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
    def is_up(self) -> bool:
        """False while the server is stalled (crashed or paused)."""
        return self._up

    # --------------------------------------------------------------- controls
    def crash(self) -> None:
        """Stall the server (idempotent): in-service requests complete and
        respond, and arrivals queue until :meth:`restore`."""
        if not self._up:
            return
        self._up = False
        self.crashes += 1
        if self.down_tracker is not None:
            self.down_tracker.count += 1

    def restore(self) -> None:
        """End the stall and drain whatever queued meanwhile."""
        if self._up:
            return
        self._up = True
        if self.down_tracker is not None:
            self.down_tracker.count -= 1
        self._try_start_service()

    def set_service_time_multiplier(self, multiplier: float, source: object = None) -> None:
        """Slow the server down (above 1) or speed it up, for services that start later.

        ``source`` keys the perturbation: independent sources (a GC-pause
        process and a permanent slow-node process, say) each own one factor,
        and the effective multiplier is their product.  A source setting
        ``1.0`` withdraws its factor; ``None`` is the shared default source.
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
    def enqueue(self, request: Any) -> None:
        """Accept a request arriving at the server now."""
        if not self._up:
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
            service_time = self._begin_service(request)
            self.loop.post(service_time, self._finish_service, request, service_time)

    def _begin_service(self, request: Any) -> float:
        """Start ``request``'s service (its slot is taken) and return its time."""
        return self._draw_service_time(request)

    def _draw_service_time(self, request: Any) -> float:
        mean = self.current_service_time_ms
        if self.deterministic:
            return mean
        return mean * self._exp()

    def feedback_snapshot(self) -> Any:
        """The ``(queue_size, service_time)`` piggy-backed on a response,
        the service time floored at 1e-3 ms.

        Taken after the completed request has released its service slot and
        *before* the next queued request is started (per §3.1): the queue
        size a departing response reports includes neither the request it
        rides on nor any slot-refill that its departure enables.  The
        batched kernel snapshots the same two values at the same point in
        its completion handler.
        """
        return (self.pending_requests, max(self.smoothed_service_time, 1e-3))

    def _finish_service(self, request: Any, service_time: float) -> None:
        self._in_service -= 1
        self.requests_completed += 1
        self.busy_time_ms += service_time
        alpha = self.feedback_alpha  # EWMA.update's fold on a plain float, as the batched kernel's
        self.smoothed_service_time = alpha * service_time + (1.0 - alpha) * self.smoothed_service_time
        feedback = self.feedback_snapshot()
        self._try_start_service()
        if self.on_complete is not None:
            self.on_complete(request, feedback, service_time)

    # ------------------------------------------------------------ observation
    def utilization(self, elapsed_ms: float) -> float:
        """Fraction of capacity used over ``elapsed_ms``."""
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
