"""Request records flowing through the simulated system."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Iterator

__all__ = ["Request", "RequestKind", "record_size_factor", "request_id_counter"]

#: Process-wide fallback id source.  Simulations pass their own per-run
#: counter (``id_source``) so request ids are reproducible run-to-run —
#: a pooled worker that reuses a process must hand out the same ids a
#: fresh serial run would.
request_id_counter = itertools.count()


def record_size_factor(record_size: int) -> float:
    """Service-time scale of a record: 1 KB is the baseline, 256 B the floor.

    A size of zero or less means "unsized" and scales by 1.
    """
    if record_size <= 0:
        return 1.0
    return max(0.25, record_size / 1024.0)


class RequestKind:
    """Request categories used by the workload models."""

    READ = "read"
    WRITE = "write"
    READ_REPAIR = "read_repair"
    SPECULATIVE = "speculative"

    ALL = (READ, WRITE, READ_REPAIR, SPECULATIVE)


@dataclass(slots=True)
class Request:
    """A single client request.

    Attributes
    ----------
    request_id:
        Unique identifier within a run.
    client_id:
        Identifier of the client that issued the request.
    replica_group:
        Candidate servers able to serve the request.
    created_at:
        Time the request entered the system (ms).
    kind:
        One of :class:`RequestKind` values (read, write, read-repair
        duplicate, speculative retry duplicate).
    key:
        Optional data key (used by the cluster substrate and Zipfian
        workloads); ``None`` for the flat simulator.
    record_size:
        Payload size in bytes (drives the record-size experiments).
    dispatched_at / started_service_at / completed_at:
        Lifecycle timestamps filled in as the request progresses.
    server_id:
        The server that ultimately served the request.
    parent_id:
        For duplicates (read repair, speculative retry), the originating
        request's id.
    """

    request_id: int
    client_id: Hashable
    replica_group: tuple
    created_at: float
    kind: str = RequestKind.READ
    key: int | None = None
    record_size: int = 1024
    dispatched_at: float | None = None
    started_service_at: float | None = None
    completed_at: float | None = None
    server_id: Hashable | None = None
    parent_id: int | None = None
    backpressured: bool = False
    service_time: float | None = None
    attempts: int = 0

    @classmethod
    def create(
        cls,
        client_id: Hashable,
        replica_group: tuple,
        created_at: float,
        kind: str = RequestKind.READ,
        key: int | None = None,
        record_size: int = 1024,
        parent_id: int | None = None,
        id_source: Iterator[int] | None = None,
    ) -> "Request":
        """Create a request with a fresh id from ``id_source``.

        ``id_source`` defaults to the process-global counter; simulations
        supply their own per-run counter for run-to-run reproducible ids.
        """
        return cls(
            request_id=next(id_source if id_source is not None else request_id_counter),
            client_id=client_id,
            replica_group=tuple(replica_group),
            created_at=created_at,
            kind=kind,
            key=key,
            record_size=record_size,
            parent_id=parent_id,
        )

    @property
    def latency(self) -> float | None:
        """End-to-end latency in ms, ``None`` while incomplete."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.created_at

    @property
    def queueing_delay(self) -> float | None:
        """Time between arriving at the server and entering service."""
        if self.started_service_at is None or self.dispatched_at is None:
            return None
        return self.started_service_at - self.dispatched_at

    @property
    def is_duplicate(self) -> bool:
        """True for read-repair / speculative copies of another request."""
        return self.parent_id is not None

    def mark_dispatched(self, now: float, server_id: Hashable) -> None:
        """Record dispatch to ``server_id`` at ``now``."""
        self.dispatched_at = now
        self.server_id = server_id
        self.attempts += 1

    def mark_completed(self, now: float) -> None:
        """Record completion at ``now`` — the first completion wins.

        Under hedging (first-response-wins) a straggling response for an
        already-completed request must not overwrite the winning timestamp:
        ``Request.latency`` has to agree with the latency the metrics
        recorded at win time.
        """
        if self.completed_at is None:
            self.completed_at = now
