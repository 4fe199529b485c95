"""Simulated client nodes.

A client owns one :class:`~repro.strategies.base.ReplicaSelector` and drives
it: it submits incoming requests, dispatches them over the (simulated)
network, issues read-repair duplicates, retries backpressured requests when
permits free up, and feeds responses (with their piggy-backed feedback) back
into the selector.

Liveness knowledge is mediated by a pluggable failure detector (see
:mod:`repro.controls.detectors`): the default
:class:`~repro.controls.detectors.BinaryFailureDetector` reproduces the
legacy ground-truth down/up checks byte-for-byte, while
``failure_detector="phi:threshold=8"`` switches to phi-accrual suspicion
fed by response-arrival heartbeats.  An optional hedging policy
(:class:`~repro.controls.hedging.QuantileHedging`) re-issues slow reads to
another replica after the configured latency quantile; the first response
wins and the straggler is swallowed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterator, Mapping

import numpy as np

from ..controls.detectors import BinaryFailureDetector, FailureDetector
from ..controls.hedging import QuantileHedging
from ..core import samplers
from ..core.feedback import ServerFeedback
from ..strategies.base import ReplicaSelector
from .engine import Event, EventLoop
from .metrics import MetricsCollector
from .network import NetworkModel
from .request import Request, RequestKind
from .server import DownServerTracker, SimServer

__all__ = ["SimClient"]

#: Minimum delay before re-checking a backpressured backlog (ms).
_MIN_RETRY_MS = 0.1

#: Delay before re-trying requests parked because every replica was down (ms).
_PARKED_RETRY_MS = 5.0


@dataclass(slots=True)
class _HedgedRead:
    """Book-keeping for one read with a pending or fired hedge."""

    primary: Request
    used: set
    fired: int = 0
    done: bool = False
    event: Event | None = None


class SimClient:
    """A client node in the flat simulator.

    Parameters
    ----------
    loop:
        Shared event loop.
    client_id:
        Stable identifier.
    selector:
        The replica-selection strategy instance owned by this client.
    servers:
        Mapping from server id to :class:`SimServer` (used for dispatch).
    network:
        Network latency model.
    metrics:
        Shared metrics collector.
    read_repair_probability:
        Probability that a read is duplicated to every other replica of its
        group (Cassandra's default of 10 % is used throughout the paper).
    rng:
        Random generator (read-repair coin flips, hedge target choice).
    down_tracker:
        Shared crashed-server count (scenario fault injection), used by
        read repair and — via the default binary detector — liveness checks.
    failure_detector:
        Shared :class:`~repro.controls.detectors.FailureDetector` consulted
        before replica selection and dispatch.  ``None`` builds the legacy
        :class:`BinaryFailureDetector` over ``down_tracker``/``servers``
        (which disables all filtering when ``down_tracker`` is ``None``).
    hedging:
        Optional hedging policy: reads still pending after the policy's
        latency-quantile threshold are re-issued to a different live
        replica.  ``None`` (the default) hedges nothing.
    """

    def __init__(
        self,
        loop: EventLoop,
        client_id: Hashable,
        selector: ReplicaSelector,
        servers: Mapping[Hashable, SimServer],
        network: NetworkModel,
        metrics: MetricsCollector,
        read_repair_probability: float = 0.1,
        rng: np.random.Generator | None = None,
        down_tracker: DownServerTracker | None = None,
        failure_detector: FailureDetector | None = None,
        hedging: QuantileHedging | None = None,
        id_source: Iterator[int] | None = None,
    ) -> None:
        if not 0.0 <= read_repair_probability <= 1.0:
            raise ValueError("read_repair_probability must be in [0, 1]")
        self.loop = loop
        self.client_id = client_id
        self.selector = selector
        self.servers = servers
        self.network = network
        self.metrics = metrics
        self.read_repair_probability = read_repair_probability
        self.rng = rng or np.random.default_rng()
        self._rr_coin = samplers.uniform(self.rng)
        self.down_tracker = down_tracker
        self.failure_detector: FailureDetector = (
            failure_detector
            if failure_detector is not None
            else BinaryFailureDetector(down_tracker, servers)
        )
        self.hedging = hedging
        self._id_source = id_source

        self._retry_event: Event | None = None
        self._parked: list[Request] = []
        self._parked_event: Event | None = None
        self._hedge_ops: dict[int, _HedgedRead] = {}
        self._hedge_by_copy: dict[int, int] = {}
        self.requests_handled = 0
        self.responses_handled = 0
        self.read_repairs_issued = 0
        self.requests_parked = 0
        self.hedges_fired = 0
        self.hedges_won = 0

    # -------------------------------------------------------------- entry point
    def on_request(self, request: Request) -> None:
        """Handle a newly generated request."""
        self.requests_handled += 1
        self.metrics.on_issue(request)
        self._submit(request)

    def _submit(self, request: Request) -> None:
        """Route a request through liveness filtering and replica selection."""
        now = self.loop.now
        candidates = request.replica_group
        if self.failure_detector.suspicious():
            live = tuple(sid for sid in candidates if self.failure_detector.is_alive(sid, now))
            if not live:
                self._park(request)
                return
            candidates = live
        decision = self.selector.submit(request, candidates, now)
        if decision.sent:
            self._dispatch(request, decision.server_id)
            self._maybe_read_repair(request)
            self._maybe_schedule_hedge(request)
        else:
            request.backpressured = True
            self.metrics.on_backpressure()
            self._schedule_retry(decision.retry_after_ms)

    # ------------------------------------------------------------------ dispatch
    def _dispatch(self, request: Request, server_id: Hashable) -> None:
        now = self.loop.now
        if self.failure_detector.suspicious() and not self.failure_detector.is_alive(server_id, now):
            # A selector-internal placement (backlog drain) raced with a
            # crash: release the selector's accounting and park the request
            # for a fresh selection once a replica is back.
            self.selector.on_timeout(server_id, now)
            self._park(request)
            return
        request.mark_dispatched(now, server_id)
        delay = self.network.one_way_delay(self.client_id, server_id)
        self.loop.post(delay, self.servers[server_id].enqueue, request)

    def _maybe_read_repair(self, request: Request) -> None:
        """With probability p, duplicate the read to all other replicas.

        The duplicates add server load and produce feedback (which lets the
        coordinator refresh its view of every peer, per §4) but do not count
        towards the latency distribution.  Read repair deliberately keeps
        using ground-truth crash knowledge (``down_tracker``) rather than
        the configured failure detector: connection-refused knowledge is
        immediate in Cassandra, and the resulting duplicates are the probe
        traffic that lets a suspicion-based detector observe a recovered
        (or merely slow) replica and un-suspect it.
        """
        if request.kind != RequestKind.READ or request.is_duplicate:
            return
        if self.read_repair_probability <= 0.0:
            return
        if self._rr_coin() >= self.read_repair_probability:
            return
        down = self.down_tracker is not None and self.down_tracker.count
        for server_id in request.replica_group:
            if server_id == request.server_id:
                continue
            if down and not self.servers[server_id].is_up:
                continue
            duplicate = Request.create(
                client_id=self.client_id,
                replica_group=request.replica_group,
                created_at=self.loop.now,
                kind=RequestKind.READ_REPAIR,
                key=request.key,
                record_size=request.record_size,
                parent_id=request.request_id,
                id_source=self._id_source,
            )
            self.metrics.on_issue(duplicate)
            self.selector.on_duplicate_send(server_id, self.loop.now)
            self._dispatch(duplicate, server_id)
            self.read_repairs_issued += 1

    # ------------------------------------------------------------------- hedging
    def _maybe_schedule_hedge(self, request: Request) -> None:
        """Arm the hedge timer for a freshly dispatched primary read."""
        if self.hedging is None:
            return
        if request.kind != RequestKind.READ or request.is_duplicate:
            return
        if request.server_id is None or request.request_id in self._hedge_ops:
            return
        threshold = self.hedging.threshold_ms()
        if threshold is None:
            return
        op = _HedgedRead(primary=request, used={request.server_id})
        op.event = self.loop.schedule(threshold, self._fire_hedge, request.request_id)
        self._hedge_ops[request.request_id] = op

    def _fire_hedge(self, primary_id: int) -> None:
        """Issue one extra copy of a still-pending read to a fresh replica."""
        op = self._hedge_ops.get(primary_id)
        if op is None or op.done or self.hedging is None:
            return
        op.event = None
        now = self.loop.now
        primary = op.primary
        candidates = tuple(
            sid
            for sid in primary.replica_group
            if sid not in op.used and self.failure_detector.is_alive(sid, now)
        )
        if not candidates:
            # Every unused replica is currently suspect (e.g. a transient
            # full-group crash).  Keep the timer armed while budget and an
            # unused replica remain, so hedging resumes once one recovers
            # instead of being permanently disarmed for this request.
            self._rearm_hedge(op, primary_id)
            return
        target = candidates[int(self.rng.integers(len(candidates)))]
        duplicate = Request.create(
            client_id=self.client_id,
            replica_group=primary.replica_group,
            created_at=now,
            kind=RequestKind.SPECULATIVE,
            key=primary.key,
            record_size=primary.record_size,
            parent_id=primary.request_id,
            id_source=self._id_source,
        )
        op.used.add(target)
        op.fired += 1
        self._hedge_by_copy[duplicate.request_id] = primary_id
        self.metrics.on_issue(duplicate)
        self.hedges_fired += 1
        self.selector.on_duplicate_send(target, now)
        self._dispatch(duplicate, target)
        self._rearm_hedge(op, primary_id)

    def _rearm_hedge(self, op: _HedgedRead, primary_id: int) -> None:
        """Re-schedule the hedge timer while budget and an unused replica remain.

        Once every replica of the group holds a copy there is nothing left
        to hedge to, whatever the budget says: a re-armed timer would only
        fire, find no candidate and re-arm again until the read completes.
        """
        assert self.hedging is not None
        if op.fired < self.hedging.max_extra and len(op.used) < len(op.primary.replica_group):
            threshold = self.hedging.threshold_ms()
            if threshold is not None:
                op.event = self.loop.schedule(threshold, self._fire_hedge, primary_id)

    def _hedge_complete(self, request: Request, response_time: float, now: float) -> None:
        """First-response-wins completion accounting for hedged reads.

        Exactly one client-visible completion is recorded per primary
        request: either its own response, or — when a hedge copy answers
        first — the copy's arrival (the straggling primary response is then
        swallowed, though its feedback still reached the selector).  Server
        load, in contrast, is attributed per *response*: every replica that
        actually answers is credited in the window of its own response.
        """
        policy = self.hedging
        assert policy is not None
        # Server load is credited when the serving replica actually responds
        # — winner, loser, and straggler alike — so the Fig. 8/9 windowed
        # load series reflect real server activity under hedging instead of
        # shifting the primary's completion into the hedge-win window.
        self.metrics.on_server_complete(request, now)
        primary_id = self._hedge_by_copy.pop(request.request_id, None)
        if primary_id is not None:
            op = self._hedge_ops.get(primary_id)
            if op is None or op.done:
                return
            # First response wins: complete the operation now.  The op entry
            # stays behind (done=True) so the straggling primary response is
            # recognised and swallowed; its server load is still credited —
            # at its actual arrival time — by the on_server_complete above.
            op.done = True
            if op.event is not None:
                op.event.cancel()
            self.hedges_won += 1
            op.primary.mark_completed(now)
            if op.primary.dispatched_at is not None:
                policy.record(now - op.primary.dispatched_at)
            self.metrics.on_client_complete(op.primary)
            return
        op = self._hedge_ops.pop(request.request_id, None)
        if op is not None:
            if op.done:
                # A copy already completed this operation; the primary's
                # straggler response is swallowed (latency-wise — its load
                # contribution was recorded above).
                return
            if op.event is not None:
                op.event.cancel()
        if request.kind == RequestKind.READ and not request.is_duplicate:
            policy.record(response_time)
        self.metrics.on_client_complete(request)

    # ----------------------------------------------------------------- responses
    def on_server_response(self, request: Request, feedback: ServerFeedback, service_time: float) -> None:
        """Handle a response arriving back at the client."""
        now = self.loop.now
        self.responses_handled += 1
        self.failure_detector.heartbeat(request.server_id, now)
        request.mark_completed(now)
        response_time = (
            now - request.dispatched_at if request.dispatched_at is not None else now - request.created_at
        )
        released = self.selector.on_response(request.server_id, feedback, response_time, now)
        if self.hedging is not None:
            self._hedge_complete(request, response_time, now)
        else:
            self.metrics.on_complete(request, now)
        for pending_request, server_id in released:
            self._dispatch(pending_request, server_id)
            self._maybe_read_repair(pending_request)
            self._maybe_schedule_hedge(pending_request)
        if self.selector.pending_backlog() > 0:
            self._schedule_retry(self.selector.next_retry_ms(now) or _MIN_RETRY_MS)

    # -------------------------------------------------------------------- parking
    def _park(self, request: Request) -> None:
        """Hold a request whose every live routing option is gone.

        Parked requests are re-submitted every ``_PARKED_RETRY_MS`` until a
        replica restarts (or the simulation's time cap ends the run); each
        park counts as a backpressure event.
        """
        request.backpressured = True
        self.metrics.on_backpressure()
        self.requests_parked += 1
        self._parked.append(request)
        if self._parked_event is None or self._parked_event.cancelled:
            self._parked_event = self.loop.schedule(_PARKED_RETRY_MS, self._retry_parked)

    def _retry_parked(self) -> None:
        self._parked_event = None
        parked, self._parked = self._parked, []
        for request in parked:
            self._submit(request)

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
            self._maybe_read_repair(request)
            self._maybe_schedule_hedge(request)
        if self.selector.pending_backlog() > 0:
            retry = self.selector.next_retry_ms(now)
            self._schedule_retry(retry if retry is not None else 1.0)

    # ---------------------------------------------------------------- observation
    def stats(self) -> dict:
        """Client-level counters plus the selector's own statistics."""
        return {
            "client_id": self.client_id,
            "requests_handled": self.requests_handled,
            "responses_handled": self.responses_handled,
            "read_repairs_issued": self.read_repairs_issued,
            "requests_parked": self.requests_parked,
            "hedges_fired": self.hedges_fired,
            "hedges_won": self.hedges_won,
            "selector": self.selector.stats(),
        }
