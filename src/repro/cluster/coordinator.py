"""The coordinator — Cassandra's read/write path with pluggable snitching.

A client can contact any node; that node becomes the *coordinator* for the
operation and internally fetches the record from a replica (§2.3).  The
coordinator is the C3 client in the paper's implementation: it runs replica
ranking, rate control and backpressure for reads, issues read-repair
duplicates (10 % of reads go to every replica), fans writes out to all
replicas, and optionally speculatively retries slow reads — as an adapter
over :mod:`repro.core.lifecycle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Mapping

import numpy as np

from ..controls.hedging import QuantileHedging
from ..core import samplers
from ..core.feedback import ServerFeedback
from ..core.lifecycle import Hedge, RequestLifecycle
from ..simulator.engine import EventLoop
from ..simulator.network import NetworkModel
from ..simulator.request import Request, RequestKind
from ..strategies.base import ReplicaSelector
from ..workloads.ycsb import Operation
from .metrics import ClusterMetrics
from .node import ClusterNode
from .ring import TokenRing

__all__ = ["Coordinator"]

#: Loop-back delay for a coordinator reading from its own storage (ms).
_LOCAL_DELAY_MS = 0.02


@dataclass(slots=True)
class _PendingOperation:
    """Book-keeping for one in-flight client operation."""

    op_id: int
    primary: Request
    issued_at: float
    is_read: bool
    group_label: str
    on_done: Callable[[Request, float], None]
    completed: bool = False
    #: The read's hedge, once armed.
    hedge: Hedge | None = None


class Coordinator(RequestLifecycle):
    """One node's coordinator role.  Its intended differences from the flat
    and live clients:

    - **I/O**: a sent request is a :meth:`EventLoop.post` to its node after
      the network's one-way delay, or ``_LOCAL_DELAY_MS`` to itself.
    - **Completion**: the first response of *any* copy completes the
      operation — read-repair and write copies included — and the hedge
      policy learns ``now − issued_at``.
    - **Writes** fan out to every replica and make no selection; read
      repair indexes each copy under its operation.  No failure detector.

    Parameters
    ----------
    loop / node_id / ring / selector:
        Event loop, owning node id, token ring and the replica-selection
        strategy instance this coordinator uses.
    nodes:
        Mapping from node id to :class:`ClusterNode` for dispatching.
    network:
        Inter-node network latency model.
    metrics:
        Shared :class:`ClusterMetrics`.
    read_repair_probability:
        Fraction of reads duplicated to every replica (Cassandra default 0.1).
    speculative_retry:
        Optional hedging policy (a
        :class:`~repro.controls.hedging.QuantileHedging`); its ``max_extra``
        bounds the extra copies issued per read.
    rng:
        Random generator.
    """

    def __init__(
        self,
        loop: EventLoop,
        node_id: Hashable,
        ring: TokenRing,
        selector: ReplicaSelector,
        nodes: Mapping[Hashable, ClusterNode],
        network: NetworkModel,
        metrics: ClusterMetrics,
        read_repair_probability: float = 0.1,
        speculative_retry: QuantileHedging | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if not 0.0 <= read_repair_probability <= 1.0:
            raise ValueError("read_repair_probability must be in [0, 1]")
        super().__init__(
            selector=selector,
            detector=None,
            hedging=speculative_retry,
            rng=rng or np.random.default_rng(),
            schedule=loop.schedule,
            clock=lambda: loop.now,
        )
        self.loop = loop
        self.node_id = node_id
        self.ring = ring
        self.nodes = nodes
        self.network = network
        self.metrics = metrics
        self.read_repair_probability = read_repair_probability
        self._rr_coin = samplers.uniform(self.rng)

        self._pending: dict[int, _PendingOperation] = {}
        self._pending_by_copy: dict[int, _PendingOperation] = {}
        self.operations_executed = 0
        self.reads_executed = 0
        self.writes_executed = 0
        self.speculations_fired = 0

    # --------------------------------------------------------------- entry point
    def execute(
        self,
        operation: Operation,
        on_done: Callable[[Request, float], None],
        group_label: str = "",
    ) -> Request:
        """Execute one client operation; ``on_done(request, latency)`` fires
        when the operation completes."""
        now = self.loop.now
        group = self.ring.replicas_for(operation.key)
        kind = RequestKind.READ if operation.is_read else RequestKind.WRITE
        request = Request.create(
            client_id=self.node_id,
            replica_group=group,
            created_at=now,
            kind=kind,
            key=operation.key,
            record_size=operation.record_size,
        )
        pending = _PendingOperation(
            op_id=request.request_id,
            primary=request,
            issued_at=now,
            is_read=operation.is_read,
            group_label=group_label,
            on_done=on_done,
        )
        self._pending[request.request_id] = pending
        self._pending_by_copy[request.request_id] = pending
        self.operations_executed += 1
        self.metrics.record_issue()

        if operation.is_read:
            self.reads_executed += 1
            self._submit(request, now)
        else:
            self.writes_executed += 1
            self._execute_write(request, pending, now)
        return request

    def on_remote_response(self, request: Request, feedback: ServerFeedback, service_time: float) -> None:
        """Handle a response for any request copy this coordinator dispatched."""
        now = self.loop.now
        request.mark_completed(now)
        self.metrics.record_load(request.server_id, now)
        response_time = (
            now - request.dispatched_at if request.dispatched_at is not None else now - request.created_at
        )
        released = self.selector.on_response(request.server_id, feedback, response_time, now)
        self._release_all(released, now)

        # Each copy answers at most once, so its index entry goes with its
        # response; a completed operation's stragglers stay recognised until
        # their own responses arrive.
        pending = self._pending_by_copy.pop(request.request_id, None)
        if pending is not None and not pending.completed:
            self._complete_operation(pending, now)

    def _complete_operation(self, pending: _PendingOperation, now: float) -> None:
        pending.completed = True
        if pending.hedge is not None:
            self._close_hedge(pending.hedge)
        latency = now - pending.issued_at
        if pending.is_read and self.hedging is not None:
            self.hedging.record(latency)
        self.metrics.record_operation(latency, pending.is_read, now, pending.group_label)
        pending.on_done(pending.primary, latency)
        self._pending.pop(pending.op_id, None)

    # ------------------------------------------------------------ lifecycle I/O
    def _transmit(self, request: Request, node_id: Hashable, now: float) -> bool:
        request.mark_dispatched(now, node_id)
        delay = (
            _LOCAL_DELAY_MS
            if node_id == self.node_id
            else self.network.one_way_delay(self.node_id, node_id)
        )
        self.loop.post(delay, self.nodes[node_id].enqueue, request)
        return True

    def _count_backpressure(self, request: Request) -> None:
        request.backpressured = True
        self.metrics.record_backpressure()

    def _copy(self, request: Request, kind: str, now: float) -> Request:
        return Request.create(
            client_id=self.node_id,
            replica_group=request.replica_group,
            created_at=now,
            kind=kind,
            key=request.key,
            record_size=request.record_size,
            parent_id=request.request_id,
        )

    def _read_repair(self, request: Request, now: float) -> None:
        pending = self._pending_by_copy.get(request.request_id)
        if pending is None or self.read_repair_probability <= 0.0:
            return
        if self._rr_coin() < self.read_repair_probability:
            self._fan_out(request, pending, request.server_id, RequestKind.READ_REPAIR, "read_repair", now)

    def _hedge(self, request: Request, node_id: Hashable, now: float) -> None:
        pending = self._pending_by_copy.get(request.request_id)
        if pending is not None and pending.is_read:
            pending.hedge = self._arm_hedge(request, request.replica_group, node_id)

    def _send_hedge(self, hedge: Hedge, node_id: Hashable, now: float) -> None:
        pending = self._pending[hedge.op.request_id]
        duplicate = self._copy(hedge.op, RequestKind.SPECULATIVE, now)
        self._pending_by_copy[duplicate.request_id] = pending
        self.metrics.record_copy("speculative")
        self.speculations_fired += 1
        self._transmit(duplicate, node_id, now)

    # -------------------------------------------------------------------- writes
    def _execute_write(self, request: Request, pending: _PendingOperation, now: float) -> None:
        """Fan the write out to every replica; the op completes on first ack."""
        group = request.replica_group
        primary_target = group[int(self.rng.integers(len(group)))]
        self.selector.on_duplicate_send(primary_target, now)
        self._transmit(request, primary_target, now)
        self._fan_out(request, pending, primary_target, RequestKind.WRITE, "write_replica", now)

    def _fan_out(
        self, request: Request, pending: _PendingOperation, skip: Hashable, kind: str, label: str, now: float
    ) -> None:
        """A ``kind`` copy of ``request`` to every replica but ``skip``."""
        for node_id in request.replica_group:
            if node_id == skip:
                continue
            copy = self._copy(request, kind, now)
            self._pending_by_copy[copy.request_id] = pending
            self.metrics.record_copy(label)
            self.selector.on_duplicate_send(node_id, now)
            self._transmit(copy, node_id, now)

    # ---------------------------------------------------------------- observation
    @property
    def pending_operations(self) -> int:
        """Number of client operations still awaiting their first response."""
        return len(self._pending)

    def stats(self) -> dict:
        """Coordinator counters plus the selector's own statistics."""
        return {
            "node_id": self.node_id,
            "operations": self.operations_executed,
            "reads": self.reads_executed,
            "writes": self.writes_executed,
            "speculations": self.speculations_fired,
            "pending": len(self._pending),
            "selector": self.selector.stats(),
        }
