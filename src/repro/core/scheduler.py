"""The replica-selector interface and C3, the selector it is shaped after (§3.3).

:class:`ReplicaSelector` is what every client-side strategy implements, and
:class:`C3Scheduler` is the registered ``C3`` strategy: Algorithms 1 and 2
in one object, which

* ranks the replica group via :class:`~repro.core.scoring.ReplicaScorer`;
* admits through one
  :class:`~repro.core.rate_control.CubicRateController` per server, created
  on first contact;
* parks the rest in per-replica-group
  :class:`~repro.core.backpressure.BackpressureQueues`.

Both live here, next to :class:`SelectorDecision`, so that the core never
imports :mod:`repro.strategies` (which re-exports them and registers the
scheduler under its spec name).  The scheduler is transport-agnostic: a
caller (the flat simulator's client, the cluster substrate's coordinator,
the live client) submits requests with explicit timestamps and receives
either the chosen server id or a "backpressured" outcome, and later reports
responses with the piggy-backed feedback.  All time values are milliseconds.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from .backpressure import BackpressureQueues, BacklogEntry
from .config import C3Config
from .feedback import ServerFeedback
from .rate_control import CubicRateController, RateControlEvent
from .scoring import ReplicaScorer

__all__ = ["SelectorDecision", "ScheduleDecision", "ReplicaSelector", "C3Scheduler"]


@dataclass(slots=True)
class SelectorDecision:
    """Outcome of one placement — what every replica selector's ``submit`` returns.

    Not frozen: one is built per request on every strategy, and a frozen
    dataclass's ``__init__`` costs 3.5x as much.

    Attributes
    ----------
    server_id:
        The chosen server, or ``None`` when the request was backpressured.
    backpressured:
        Whether the request is waiting in a backlog queue.
    retry_after_ms:
        When backpressured, a hint of how long until a permit frees up.
    """

    server_id: Hashable | None
    backpressured: bool = False
    retry_after_ms: float = 0.0

    @property
    def sent(self) -> bool:
        """True when a server was selected for immediate dispatch."""
        return self.server_id is not None


@dataclass(slots=True)
class ScheduleDecision(SelectorDecision):
    """A :class:`SelectorDecision` plus ``ranking``: the scored ordering of the
    replica group at decision time (for tracing and tests)."""

    ranking: tuple = ()


class ReplicaSelector(ABC):
    """Abstract replica-selection strategy.

    A selector is a *client-side* object: each simulated client (or cluster
    coordinator, or live client) owns one instance.  Backpressure-capable
    strategies (C3, rate-limited round-robin) and plain ones (LOR, oracle,
    random, …) are driven by the same client code through
    :meth:`submit` (placement, possibly backpressured), :meth:`on_response`
    (accounting, returning any backlogged requests it released) and
    :meth:`drain_backlog` / :meth:`next_retry_ms` (the client's retry timer).
    """

    #: Human-readable strategy name (used in reports and plots).
    name: str = "base"

    @abstractmethod
    def submit(self, request: object, replica_group: Sequence[Hashable], now: float) -> SelectorDecision:
        """Choose a server for ``request`` or signal backpressure."""

    @abstractmethod
    def on_response(
        self,
        server_id: Hashable,
        feedback: ServerFeedback | None,
        response_time: float,
        now: float,
    ) -> list[tuple[object, Hashable]]:
        """Account for a completed request.

        Returns a (possibly empty) list of ``(request, server_id)`` pairs for
        backlogged requests released by this response.
        """

    def on_timeout(self, server_id: Hashable, now: float) -> None:
        """Account for a request that will never complete.  Optional."""

    def on_duplicate_send(self, server_id: Hashable, now: float) -> None:
        """Account for a read-repair / speculative duplicate send.

        Duplicates bypass replica selection but still occupy the server and
        will produce feedback; strategies that track outstanding requests
        should count them.  The default implementation ignores them.
        """

    def drain_backlog(self, now: float) -> list[tuple[object, Hashable]]:
        """Release any backlogged requests that can now be placed."""
        return []

    def cancel(self, request: object) -> None:
        """Withdraw ``request`` from any backlog: its caller gave up on it.

        A cancelled request is never released by :meth:`drain_backlog`.  The
        default holds no backlog and does nothing.
        """

    def pending_backlog(self) -> int:
        """Number of requests currently parked by backpressure."""
        return 0

    def next_retry_ms(self, now: float) -> float | None:
        """Hint for when the client should retry the backlog (None = never)."""
        return None

    def stats(self) -> dict:
        """Strategy-specific counters for reporting (default: empty)."""
        return {}


class C3Scheduler(ReplicaSelector):
    """Client-side C3: ranking + rate control + backpressure.

    Parameters
    ----------
    config:
        The :class:`~repro.core.config.C3Config` to operate under.  Remember
        to call :meth:`C3Config.with_clients` (or set ``concurrency_weight``)
        so the concurrency compensation matches the deployment, as the paper
        prescribes.

    ``record_history`` is copied onto each rate controller as it is created,
    so setting it after construction and before the first request keeps
    every rate increase and decrease for :meth:`rate_history` (Figure 13).
    """

    name = "C3"

    def __init__(self, config: C3Config | None = None) -> None:
        self.config = config or C3Config()
        self.scorer = ReplicaScorer(self.config)
        self.record_history = False
        self._controllers: dict[Hashable, CubicRateController] = {}
        self.backlog = BackpressureQueues()
        self.requests_submitted = 0
        self.requests_sent = 0
        self.requests_backpressured = 0
        self.responses_received = 0

    # ------------------------------------------------------- rate controllers
    def controller(self, server_id: Hashable) -> CubicRateController:
        """Return (creating if necessary) the rate controller for ``server_id``."""
        ctrl = self._controllers.get(server_id)
        if ctrl is None:
            ctrl = CubicRateController(self.config, server_id)
            ctrl.record_history = self.record_history
            self._controllers[server_id] = ctrl
        return ctrl

    def earliest_availability(self, server_ids: Iterable[Hashable], now: float) -> float:
        """Smallest wait (ms) until any of ``server_ids`` admits a request."""
        get = self._controllers.get
        waits = [(get(sid) or self.controller(sid)).limiter.time_until_available(now) for sid in server_ids]
        return min(waits) if waits else 0.0

    # -------------------------------------------------------------- send path
    def submit(
        self,
        request: object,
        replica_group: Sequence[Hashable],
        now: float,
    ) -> ScheduleDecision:
        """Algorithm 1: pick a replica for ``request`` or apply backpressure.

        The replica group is ranked by the cubic score; the first replica
        whose rate limiter admits the request receives it.  When no replica is
        within its rate the request is parked in the group's backlog queue
        (only if rate control is enabled — otherwise the best-ranked replica
        is always used).
        """
        group = tuple(replica_group)
        ranking = self.scorer.rank(group)
        self.requests_submitted += 1
        server_id = self._place(ranking, now)
        if server_id is None:
            # Backpressure: every candidate replica exceeded its rate.
            self.backlog.enqueue(request, group, now)
            self.requests_backpressured += 1
            retry_after = self.earliest_availability(group, now)
            return ScheduleDecision(None, True, retry_after, tuple(ranking))
        return ScheduleDecision(server_id, False, 0.0, tuple(ranking))

    def _place(self, ranking: list[Hashable], now: float) -> Hashable | None:
        """Send to the first ranked replica within its rate (``None``: none is),
        fully accounted: permit consumed, the scorer's send slots bumped."""
        if self.config.rate_control_enabled:
            controllers = self._controllers
            for server_id in ranking:
                controller = controllers.get(server_id) or self.controller(server_id)
                if controller.try_acquire(now):
                    break
            else:
                return None
        else:
            server_id = ranking[0]
        scorer = self.scorer
        slot = scorer._index[server_id]
        scorer._out[slot] += 1
        scorer._last_sent[slot] = now
        scorer.counters.sends += 1
        self.requests_sent += 1
        return server_id

    def on_duplicate_send(self, server_id: Hashable, now: float) -> None:
        # Read-repair duplicates occupy the server and will generate
        # feedback, so they must be reflected in the outstanding count even
        # though they bypass ranking and rate limiting.
        self.scorer.on_send(server_id, now)

    # ----------------------------------------------------------- receive path
    def on_response(
        self,
        server_id: Hashable,
        feedback: ServerFeedback | None,
        response_time: float,
        now: float,
    ) -> list[tuple[object, Hashable]]:
        """Algorithm 2: record a response and release any unblocked backlog.

        Returns the ``(request, server_id)`` pairs of the backlogged requests
        that became dispatchable as a result of this response; the caller is
        responsible for actually transmitting them.
        """
        self.responses_received += 1
        self.scorer.on_response(server_id, feedback, response_time, now)
        if self.config.rate_control_enabled:
            controller = self._controllers.get(server_id) or self.controller(server_id)
            controller.on_response(now)
            if self.backlog._pending:
                return self.drain_backlog(now)
        return []

    def on_timeout(self, server_id: Hashable, now: float) -> None:
        """Record a request that will never complete (lost response)."""
        self.scorer.on_timeout(server_id)

    # ------------------------------------------------------------- backlog ops
    def drain_backlog(self, now: float) -> list[tuple[object, Hashable]]:
        """Release backlogged requests whose groups now have available permits.

        Each released request has already had its send accounted (permit
        consumed, outstanding count incremented); the caller just dispatches.
        """
        if not self.config.rate_control_enabled:
            return []
        return self.backlog.drain_ready(now, self._place_entry)

    def _place_entry(self, entry: BacklogEntry, now: float) -> Hashable | None:
        return self._place(self.scorer.rank(entry.replica_group), now)

    def cancel(self, request: object) -> None:
        """Drop ``request`` from the backlog (it timed out waiting there)."""
        self.backlog.cancel(request)

    def pending_backlog(self) -> int:
        """Number of requests currently held by backpressure."""
        return self.backlog.pending()

    def next_retry_ms(self, now: float) -> float | None:
        """Earliest wait until any backlogged group may obtain a permit.

        Returns ``None`` when no requests are backlogged.
        """
        if not self.backlog._pending:
            return None
        earliest_availability = self.earliest_availability
        return min(
            earliest_availability(group, now) for group, queue in self.backlog._queues.items() if queue
        )

    # ------------------------------------------------------------------ kernel
    def kernel_state(self, num_servers: int) -> "tuple[tuple, list[CubicRateController]] | None":
        """Live state views for the batched kernel's inlined C3 path.

        Returns ``(scorer_state, controllers)`` where ``scorer_state`` is
        :meth:`ReplicaScorer.kernel_state`'s tuple of live dense arrays and
        ``controllers`` is the eagerly-created per-server
        :class:`CubicRateController` list (creation draws no randomness and
        every controller's clock anchors at 0, so eager creation is
        digest-neutral).  Returns ``None`` — sending the kernel to the
        polymorphic fallback — when the scorer was subclassed or its slot
        table is not the identity over ``0..num_servers-1``.
        """
        scorer = self.scorer
        if type(scorer) is not ReplicaScorer:
            return None
        state = scorer.kernel_state(num_servers)
        if state is None:
            return None
        return state, [self.controller(sid) for sid in range(num_servers)]

    # ------------------------------------------------------------- observation
    def sending_rates(self) -> dict[Hashable, float]:
        """Current per-server sending rates (requests per δ window)."""
        return {sid: ctrl.srate for sid, ctrl in self._controllers.items()}

    def rate_history(self, server_id: Hashable) -> list[RateControlEvent]:
        """The recorded rate adjustments for one server (Figure 13 traces)."""
        return self.controller(server_id).history

    def stats(self) -> dict:
        """Aggregate scheduler statistics for reporting and tests."""
        return {
            "submitted": self.requests_submitted,
            "sent": self.requests_sent,
            "backpressured": self.requests_backpressured,
            "responses": self.responses_received,
            "pending_backlog": self.pending_backlog(),
            "backlog": self.backlog.stats(),
            "scorer": self.scorer.counters.as_dict(),
        }
