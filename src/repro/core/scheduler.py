"""The C3 replica-selection scheduler (Algorithms 1 and 2, §3.3).

:class:`C3Scheduler` combines the three core mechanisms:

* replica ranking via :class:`~repro.core.scoring.ReplicaScorer`;
* per-server rate limiting and CUBIC adaptation via
  :class:`~repro.core.rate_control.PerServerRateControl`;
* per-replica-group backpressure via
  :class:`~repro.core.backpressure.BackpressureQueues`.

The scheduler is transport-agnostic: a caller (the flat simulator's client,
the cluster substrate's coordinator, or a real client library) submits
requests with explicit timestamps and receives either the chosen server id or
a "backpressured" outcome, and later reports responses with the piggy-backed
feedback.  All time values are milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from .backpressure import BackpressureQueues, BacklogEntry
from .config import C3Config
from .feedback import ServerFeedback
from .rate_control import PerServerRateControl
from .scoring import ReplicaScorer

__all__ = ["SelectorDecision", "ScheduleDecision", "C3Scheduler"]


@dataclass(slots=True)
class SelectorDecision:
    """Outcome of one placement — what every replica selector's ``submit`` returns.

    Defined here (``strategies.base`` re-exports it) so the scheduler's own
    decision can be one without the core importing the strategy package.
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


class C3Scheduler:
    """Client-side C3: ranking + rate control + backpressure.

    Parameters
    ----------
    config:
        The :class:`~repro.core.config.C3Config` to operate under.
    """

    def __init__(self, config: C3Config | None = None) -> None:
        self.config = config or C3Config()
        self.scorer = ReplicaScorer(self.config)
        self.rate_control = PerServerRateControl(self.config)
        self.backlog = BackpressureQueues()
        self.requests_submitted = 0
        self.requests_sent = 0
        self.requests_backpressured = 0
        self.responses_received = 0

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
            retry_after = self.rate_control.earliest_availability(group, now)
            return ScheduleDecision(None, True, retry_after, tuple(ranking))
        return ScheduleDecision(server_id, False, 0.0, tuple(ranking))

    def _place(self, ranking: list[Hashable], now: float) -> Hashable | None:
        """Send to the first ranked replica within its rate (``None``: none is),
        fully accounted: permit consumed, the scorer's send slots bumped."""
        if self.config.rate_control_enabled:
            controllers = self.rate_control._controllers
            for server_id in ranking:
                controller = controllers.get(server_id) or self.rate_control.controller(server_id)
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

    # ----------------------------------------------------------- receive path
    def on_response(
        self,
        server_id: Hashable,
        feedback: ServerFeedback | None,
        response_time: float,
        now: float,
    ) -> list[tuple[BacklogEntry, Hashable]]:
        """Algorithm 2: record a response and release any unblocked backlog.

        Returns the backlog entries (paired with their chosen servers) that
        became dispatchable as a result of this response; the caller is
        responsible for actually transmitting them.
        """
        self.responses_received += 1
        self.scorer.on_response(server_id, feedback, response_time, now)
        if self.config.rate_control_enabled:
            rate_control = self.rate_control
            controller = rate_control._controllers.get(server_id) or rate_control.controller(server_id)
            controller.on_response(now)
            if self.backlog._pending:
                return self.drain_backlog(now)
        return []

    def on_timeout(self, server_id: Hashable, now: float, penalty_ms: float | None = None) -> None:
        """Record a request that will never complete (lost response)."""
        self.scorer.on_timeout(server_id, penalty_ms)

    # ------------------------------------------------------------- backlog ops
    def drain_backlog(
        self, now: float, max_requests: int | None = None
    ) -> list[tuple[BacklogEntry, Hashable]]:
        """Release backlogged requests whose groups now have available permits.

        Each released entry has already had its send accounted (permit
        consumed, outstanding count incremented); the caller just dispatches.
        """
        if not self.config.rate_control_enabled:
            return []
        return self.backlog.drain_ready(now, self._place_entry, max_requests=max_requests)

    def _place_entry(self, entry: BacklogEntry, now: float) -> Hashable | None:
        return self._place(self.scorer.rank(entry.replica_group), now)

    def cancel(self, request: object) -> bool:
        """Drop ``request`` from the backlog (it timed out waiting there)."""
        return self.backlog.cancel(request)

    def pending_backlog(self) -> int:
        """Number of requests currently held by backpressure."""
        return self.backlog.pending()

    def next_backlog_retry_ms(self, now: float) -> float | None:
        """Earliest wait until any backlogged group may obtain a permit.

        Returns ``None`` when no requests are backlogged.
        """
        if not self.backlog._pending:
            return None
        earliest_availability = self.rate_control.earliest_availability
        return min(
            earliest_availability(group, now) for group, queue in self.backlog._queues.items() if queue
        )

    # ------------------------------------------------------------- observation
    def sending_rates(self) -> dict[Hashable, float]:
        """Current per-server sending rates (requests per δ window)."""
        return self.rate_control.rates()

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
