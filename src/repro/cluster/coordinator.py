"""The coordinator — Cassandra's read/write path with pluggable snitching.

A client can contact any node; that node becomes the *coordinator* for the
operation and internally fetches the record from a replica (§2.3).  The
coordinator is the C3 client in the paper's implementation: it runs replica
ranking, rate control and backpressure for reads, issues read-repair
duplicates (10 % of reads go to every replica), fans writes out to all
replicas, and optionally speculatively retries slow reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Mapping

import numpy as np

from ..controls.hedging import QuantileHedging
from ..core import samplers
from ..core.feedback import ServerFeedback
from ..simulator.engine import Event, EventLoop
from ..simulator.network import NetworkModel
from ..simulator.request import Request, RequestKind
from ..strategies.base import ReplicaSelector
from ..workloads.ycsb import Operation
from .metrics import ClusterMetrics
from .node import ClusterNode
from .ring import TokenRing

__all__ = ["Coordinator"]

#: Minimum delay before re-checking a backpressured backlog (ms).
_MIN_RETRY_MS = 0.1
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
    speculation_event: Event | None = None
    speculations: int = 0
    speculation_targets: set = field(default_factory=set)

    @property
    def speculated(self) -> bool:
        """Whether at least one speculative copy has been issued."""
        return self.speculations > 0


class Coordinator:
    """One node's coordinator role.

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
        self.loop = loop
        self.node_id = node_id
        self.ring = ring
        self.selector = selector
        self.nodes = nodes
        self.network = network
        self.metrics = metrics
        self.read_repair_probability = read_repair_probability
        self.speculative_retry = speculative_retry
        self.rng = rng or np.random.default_rng()
        self._rr_coin = samplers.uniform(self.rng)

        self._pending: dict[int, _PendingOperation] = {}
        self._pending_by_copy: dict[int, _PendingOperation] = {}
        self._retry_event: Event | None = None
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
            self._submit_read(request, pending)
        else:
            self.writes_executed += 1
            self._execute_write(request, pending)
        return request

    # --------------------------------------------------------------------- reads
    def _submit_read(self, request: Request, pending: _PendingOperation) -> None:
        now = self.loop.now
        decision = self.selector.submit(request, request.replica_group, now)
        if decision.sent:
            self._dispatch(request, decision.server_id)
            self._maybe_read_repair(request, pending)
            self._maybe_schedule_speculation(pending)
        else:
            request.backpressured = True
            self.metrics.record_backpressure()
            self._schedule_retry(decision.retry_after_ms)

    def _maybe_read_repair(self, request: Request, pending: _PendingOperation) -> None:
        if self.read_repair_probability <= 0.0:
            return
        if self._rr_coin() >= self.read_repair_probability:
            return
        for node_id in request.replica_group:
            if node_id == request.server_id:
                continue
            duplicate = self._make_copy(request, RequestKind.READ_REPAIR)
            self._pending_by_copy[duplicate.request_id] = pending
            self.metrics.record_copy("read_repair")
            self.selector.on_duplicate_send(node_id, self.loop.now)
            self._dispatch(duplicate, node_id)

    def _maybe_schedule_speculation(self, pending: _PendingOperation) -> None:
        if self.speculative_retry is None or not pending.is_read:
            return
        if pending.speculations >= self.speculative_retry.max_extra:
            return
        threshold = self.speculative_retry.threshold_ms()
        if threshold is None:
            return
        pending.speculation_event = self.loop.schedule(threshold, self._speculate, pending.op_id)

    def _speculate(self, op_id: int) -> None:
        pending = self._pending.get(op_id)
        if pending is None or pending.completed:
            return
        # The handle has fired: an open operation must not keep it (and
        # through its callback this coordinator) around.
        pending.speculation_event = None
        policy = self.speculative_retry
        if policy is None or pending.speculations >= policy.max_extra:
            return
        primary = pending.primary
        exclude = {primary.server_id} | pending.speculation_targets
        candidates = [nid for nid in primary.replica_group if nid not in exclude]
        if not candidates:
            return
        target = candidates[int(self.rng.integers(len(candidates)))]
        pending.speculation_targets.add(target)
        pending.speculations += 1
        duplicate = self._make_copy(primary, RequestKind.SPECULATIVE)
        self._pending_by_copy[duplicate.request_id] = pending
        self.metrics.record_copy("speculative")
        self.speculations_fired += 1
        self.selector.on_duplicate_send(target, self.loop.now)
        self._dispatch(duplicate, target)
        # The hedge timer re-arms while budget and an unused replica remain:
        # once every replica holds a copy it would only fire to find nothing.
        if pending.speculations < policy.max_extra and len(candidates) > 1:
            threshold = policy.threshold_ms()
            if threshold is not None:
                pending.speculation_event = self.loop.schedule(threshold, self._speculate, op_id)

    # -------------------------------------------------------------------- writes
    def _execute_write(self, request: Request, pending: _PendingOperation) -> None:
        """Fan the write out to every replica; the op completes on first ack."""
        group = list(request.replica_group)
        primary_target = group[int(self.rng.integers(len(group)))]
        self.selector.on_duplicate_send(primary_target, self.loop.now)
        self._dispatch(request, primary_target)
        for node_id in group:
            if node_id == primary_target:
                continue
            copy = self._make_copy(request, RequestKind.WRITE)
            self._pending_by_copy[copy.request_id] = pending
            self.metrics.record_copy("write_replica")
            self.selector.on_duplicate_send(node_id, self.loop.now)
            self._dispatch(copy, node_id)

    # ------------------------------------------------------------------ plumbing
    def _make_copy(self, request: Request, kind: str) -> Request:
        return Request.create(
            client_id=self.node_id,
            replica_group=request.replica_group,
            created_at=self.loop.now,
            kind=kind,
            key=request.key,
            record_size=request.record_size,
            parent_id=request.request_id,
        )

    def _dispatch(self, request: Request, node_id: Hashable) -> None:
        now = self.loop.now
        request.mark_dispatched(now, node_id)
        delay = (
            _LOCAL_DELAY_MS
            if node_id == self.node_id
            else self.network.one_way_delay(self.node_id, node_id)
        )
        self.loop.post(delay, self.nodes[node_id].enqueue, request)

    # ------------------------------------------------------------------ responses
    def on_remote_response(self, request: Request, feedback: ServerFeedback, service_time: float) -> None:
        """Handle a response for any request copy this coordinator dispatched."""
        now = self.loop.now
        request.mark_completed(now)
        self.metrics.record_load(request.server_id, now)
        response_time = (
            now - request.dispatched_at if request.dispatched_at is not None else now - request.created_at
        )
        released = self.selector.on_response(request.server_id, feedback, response_time, now)
        for pending_request, server_id in released:
            self._dispatch(pending_request, server_id)
            rel_pending = self._pending_by_copy.get(pending_request.request_id)
            if rel_pending is not None:
                self._maybe_read_repair(pending_request, rel_pending)
                self._maybe_schedule_speculation(rel_pending)
        if self.selector.pending_backlog() > 0:
            self._schedule_retry(self.selector.next_retry_ms(now) or _MIN_RETRY_MS)

        # Each copy answers at most once, so its index entry goes with its
        # response; a completed operation's stragglers stay recognised until
        # their own responses arrive.
        pending = self._pending_by_copy.pop(request.request_id, None)
        if pending is not None and not pending.completed:
            self._complete_operation(pending, now)

    def _complete_operation(self, pending: _PendingOperation, now: float) -> None:
        pending.completed = True
        if pending.speculation_event is not None:
            pending.speculation_event.cancel()
        latency = now - pending.issued_at
        if pending.is_read and self.speculative_retry is not None:
            self.speculative_retry.record(latency)
        self.metrics.record_operation(latency, pending.is_read, now, pending.group_label)
        pending.on_done(pending.primary, latency)
        self._pending.pop(pending.op_id, None)

    # -------------------------------------------------------------------- retries
    def _schedule_retry(self, delay_ms: float) -> None:
        if self._retry_event is not None and not self._retry_event.cancelled:
            return
        delay = max(float(delay_ms), _MIN_RETRY_MS)
        self._retry_event = self.loop.schedule(delay, self._retry_backlog)

    def _retry_backlog(self) -> None:
        self._retry_event = None
        now = self.loop.now
        released = self.selector.drain_backlog(now)
        for request, server_id in released:
            self._dispatch(request, server_id)
            pending = self._pending_by_copy.get(request.request_id)
            if pending is not None:
                self._maybe_read_repair(request, pending)
                self._maybe_schedule_speculation(pending)
        if self.selector.pending_backlog() > 0:
            retry = self.selector.next_retry_ms(now)
            self._schedule_retry(retry if retry is not None else 1.0)

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
