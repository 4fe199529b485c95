"""The replica-selector interface shared by C3 and every baseline.

:class:`ReplicaSelector` and :class:`SelectorDecision` are defined in
:mod:`repro.core.scheduler` next to :class:`~repro.core.scheduler.C3Scheduler`,
the C3 strategy itself, and re-exported here.  :class:`StatefulSelector` is
the convenience base of the strategies without backpressure (LOR, oracle,
random, …): a ``choose`` plus send/response hooks behind the same
``submit`` / ``on_response`` calls the clients make on C3.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Hashable, Sequence

from ..core.feedback import ServerFeedback
from ..core.scheduler import ReplicaSelector, SelectorDecision

__all__ = ["SelectorDecision", "ReplicaSelector", "StatefulSelector"]


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
