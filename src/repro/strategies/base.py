"""The replica-selector interface shared by C3 and every baseline.

A selector is a *client-side* object: each simulated client (or cluster
coordinator) owns one instance.  The interface is deliberately shaped like
the C3 scheduler so that backpressure-capable strategies (C3, rate-limited
round-robin) and plain strategies (LOR, oracle, random, …) can be driven by
the same client code:

* :meth:`ReplicaSelector.submit` — request placement, possibly backpressured;
* :meth:`ReplicaSelector.on_response` — response accounting, returning any
  backlogged requests that became dispatchable;
* :meth:`ReplicaSelector.drain_backlog` / :meth:`ReplicaSelector.next_retry_ms`
  — backlog management for the client's retry timers.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Hashable, Sequence

from ..core.feedback import ServerFeedback
from ..core.scheduler import SelectorDecision

__all__ = ["SelectorDecision", "ReplicaSelector", "StatefulSelector"]


class ReplicaSelector(ABC):
    """Abstract replica-selection strategy."""

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


class StatefulSelector(ReplicaSelector):
    """Convenience base class for strategies without backpressure.

    Subclasses implement :meth:`choose` plus whatever state updates they need
    in :meth:`record_send` / :meth:`record_response`.
    """

    def __init__(self) -> None:
        self.requests_submitted = 0
        self.responses_received = 0

    @abstractmethod
    def choose(self, replica_group: Sequence[Hashable], now: float) -> Hashable:
        """Pick one server from ``replica_group``."""

    def record_send(self, server_id: Hashable, now: float) -> None:
        """Hook called after a send decision (default: no-op)."""

    def record_response(
        self,
        server_id: Hashable,
        feedback: ServerFeedback | None,
        response_time: float,
        now: float,
    ) -> None:
        """Hook called on every response (default: no-op)."""

    # ------------------------------------------------------------------ API
    def submit(self, request: object, replica_group: Sequence[Hashable], now: float) -> SelectorDecision:
        group = tuple(replica_group)
        if not group:
            raise ValueError("replica_group must not be empty")
        self.requests_submitted += 1
        server_id = self.choose(group, now)
        if server_id not in group:
            raise ValueError(f"choose() returned {server_id!r} which is not in the replica group")
        self.record_send(server_id, now)
        return SelectorDecision(server_id=server_id, backpressured=False)

    def on_response(
        self,
        server_id: Hashable,
        feedback: ServerFeedback | None,
        response_time: float,
        now: float,
    ) -> list[tuple[object, Hashable]]:
        self.responses_received += 1
        self.record_response(server_id, feedback, response_time, now)
        return []

    def stats(self) -> dict:
        return {
            "submitted": self.requests_submitted,
            "responses": self.responses_received,
        }
