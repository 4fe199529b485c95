"""Backpressure queues — per-replica-group request backlogs (§3.2/§4).

When every replica of a request's replica group has exceeded its rate limit,
the C3 scheduler retains the request in a backlog queue until at least one
replica is within its rate again.  The reference implementation keeps one
backlog (one Akka actor mailbox) per replica group so that one saturated
group cannot head-of-line block the others; :class:`BackpressureQueues`
mirrors that structure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable

__all__ = ["BacklogEntry", "BacklogQueue", "BackpressureQueues"]


@dataclass(slots=True)
class BacklogEntry:
    """A request waiting for a rate-limit permit.

    Attributes
    ----------
    request:
        The opaque request object supplied by the caller.
    replica_group:
        The candidate servers for the request.
    enqueued_at:
        Time the request entered the backlog (milliseconds).
    """

    request: object
    replica_group: tuple
    enqueued_at: float


class BacklogQueue:
    """A FIFO backlog for one replica group; it reports every change of its
    length to the :class:`BackpressureQueues` that owns it, if one does."""

    def __init__(self, group_key: Hashable, owner: "BackpressureQueues | None" = None) -> None:
        self.group_key = group_key
        self._owner = owner
        self._entries: deque[BacklogEntry] = deque()
        self.total_enqueued = 0
        self.total_dequeued = 0
        self.max_depth = 0
        self.total_wait_ms = 0.0

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def push(self, entry: BacklogEntry) -> None:
        """Append an entry to the backlog."""
        self._entries.append(entry)
        self.total_enqueued += 1
        self.max_depth = max(self.max_depth, len(self._entries))
        self._resized(1)

    def peek(self) -> BacklogEntry | None:
        """The oldest waiting entry, or ``None`` when empty."""
        return self._entries[0] if self._entries else None

    def pop(self, now: float | None = None) -> BacklogEntry:
        """Remove and return the oldest entry, recording its wait time."""
        if not self._entries:
            raise IndexError("pop from an empty backlog queue")
        entry = self._entries.popleft()
        self.total_dequeued += 1
        self._resized(-1)
        if now is not None:
            self.total_wait_ms += max(0.0, now - entry.enqueued_at)
        return entry

    def _resized(self, change: int) -> None:
        if self._owner is not None:
            self._owner._pending += change


class BackpressureQueues:
    """The set of per-replica-group backlogs owned by one client.

    Replica groups are keyed by the frozenset of their member server ids, so
    the same three replicas always map onto the same backlog regardless of
    the order in which the membership list arrives.
    """

    def __init__(self) -> None:
        self._queues: dict[frozenset, BacklogQueue] = {}
        self._pending = 0

    @staticmethod
    def group_key(replica_group: Iterable[Hashable]) -> frozenset:
        """Canonical key for a replica group."""
        key = frozenset(replica_group)
        if not key:
            raise ValueError("replica_group must not be empty")
        return key

    def queue_for(self, replica_group: Iterable[Hashable]) -> BacklogQueue:
        """Return (creating if needed) the backlog for ``replica_group``."""
        key = self.group_key(replica_group)
        queue = self._queues.get(key)
        if queue is None:
            queue = BacklogQueue(key, self)
            self._queues[key] = queue
        return queue

    def enqueue(self, request: object, replica_group: Iterable[Hashable], now: float) -> BacklogEntry:
        """Park a request that could not be placed; returns its entry."""
        group = tuple(replica_group)
        entry = BacklogEntry(request=request, replica_group=group, enqueued_at=now)
        self.queue_for(group).push(entry)
        return entry

    def cancel(self, request: object) -> bool:
        """Withdraw a waiting request its caller has given up on.

        Returns whether it was waiting here.  A cancelled request is neither
        placed nor counted as dequeued; O(backlog) per call.
        """
        for queue in self._queues.values():
            for entry in queue._entries:
                if entry.request == request:
                    queue._entries.remove(entry)
                    queue._resized(-1)
                    return True
        return False

    def pending(self) -> int:
        """Total requests currently waiting across all groups (O(1))."""
        return self._pending

    def drain_ready(
        self,
        now: float,
        can_place: Callable[[BacklogEntry, float], Hashable | None],
    ) -> list[tuple[object, Hashable]]:
        """Release backlog entries that can now be placed.

        Parameters
        ----------
        now:
            Current time (milliseconds).
        can_place:
            Callback invoked with ``(entry, now)``; it must return the chosen
            server id (and perform any permit accounting) or ``None`` when the
            entry still cannot be placed.

        Returns
        -------
        list of ``(request, server_id)`` pairs for every request released.
        """
        released: list[tuple[object, Hashable]] = []
        for queue in self._queues.values():
            while queue:
                entry = queue.peek()
                assert entry is not None
                server_id = can_place(entry, now)
                if server_id is None:
                    break
                queue.pop(now)
                released.append((entry.request, server_id))
        return released

    def stats(self) -> dict:
        """Aggregate backlog statistics for reporting."""
        queues = list(self._queues.values())
        # Nothing re-enters a queue, so every enqueue was one backpressure event.
        total_enqueued = sum(q.total_enqueued for q in queues)
        return {
            "groups": len(queues),
            "pending": self.pending(),
            "backpressure_events": total_enqueued,
            "total_enqueued": total_enqueued,
            "total_dequeued": sum(q.total_dequeued for q in queues),
            "max_depth": max((q.max_depth for q in queues), default=0),
            "mean_wait_ms": (
                sum(q.total_wait_ms for q in queues) / sum(q.total_dequeued for q in queues)
                if any(q.total_dequeued for q in queues)
                else 0.0
            ),
        }
