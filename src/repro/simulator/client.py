"""Simulated client nodes.

A client owns one :class:`~repro.strategies.base.ReplicaSelector` and drives
it: it submits incoming requests, dispatches them over the (simulated)
network, issues read-repair duplicates, retries backpressured requests when
permits free up, and feeds responses (with their piggy-backed feedback) back
into the selector — as an adapter over :mod:`repro.core.lifecycle`.

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

from typing import Hashable, Iterator, Mapping

import numpy as np

from ..controls.detectors import BinaryFailureDetector, FailureDetector
from ..controls.hedging import QuantileHedging
from ..core import samplers
from ..core.feedback import ServerFeedback
from ..core.lifecycle import Hedge, RequestLifecycle
from ..strategies.base import ReplicaSelector
from .engine import EventLoop
from .metrics import MetricsCollector
from .network import NetworkModel
from .request import Request, RequestKind
from .server import DownServerTracker, SimServer

__all__ = ["SimClient"]


class SimClient(RequestLifecycle):
    """A client node in the flat simulator.  Its intended differences from
    the cluster and live clients:

    - **I/O**: a sent request is a :meth:`EventLoop.post` to its server after
      the network's one-way delay; copies are new :class:`Request` objects.
    - **Completion**: the hedge policy learns dispatch-relative response
      times, and a read-repair copy never completes a read; with hedging on
      the first of a read's primary and hedge copies completes it.
    - **Read repair** skips replicas that are down (ground truth), and a
      copy goes through the detector check of every placement.

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
        super().__init__(
            selector=selector,
            detector=(
                failure_detector
                if failure_detector is not None
                else BinaryFailureDetector(down_tracker, servers)
            ),
            hedging=hedging,
            rng=rng or np.random.default_rng(),
            schedule=loop.schedule,
            clock=lambda: loop.now,
        )
        self.loop = loop
        self.client_id = client_id
        self.servers = servers
        self.network = network
        self.metrics = metrics
        self.read_repair_probability = read_repair_probability
        self._rr_coin = samplers.uniform(self.rng)
        self.down_tracker = down_tracker
        self._id_source = id_source

        #: Hedged primaries by request id; a completed one stays until its
        #: own (straggling) response arrives.
        self._hedge_ops: dict[int, Hedge] = {}
        #: Hedge copies by request id, until each copy's response arrives.
        self._hedge_by_copy: dict[int, Hedge] = {}
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
        self._submit(request, self.loop.now)

    def on_server_response(self, request: Request, feedback: ServerFeedback, service_time: float) -> None:
        """Handle a response arriving back at the client."""
        now = self.loop.now
        self.responses_handled += 1
        self.detector.heartbeat(request.server_id, now)
        request.mark_completed(now)
        response_time = (
            now - request.dispatched_at if request.dispatched_at is not None else now - request.created_at
        )
        released = self.selector.on_response(request.server_id, feedback, response_time, now)
        if self.hedging is not None:
            self._hedge_complete(request, response_time, now)
        else:
            self.metrics.on_complete(request, now)
        self._release_all(released, now)

    # ------------------------------------------------------------ lifecycle I/O
    def _transmit(self, request: Request, server_id: Hashable, now: float) -> bool:
        request.mark_dispatched(now, server_id)
        delay = self.network.one_way_delay(self.client_id, server_id)
        self.loop.post(delay, self.servers[server_id].enqueue, request)
        return True

    def _count_backpressure(self, request: Request) -> None:
        request.backpressured = True
        self.metrics.on_backpressure()

    def _count_park(self, request: Request) -> None:
        self._count_backpressure(request)  # each park is a backpressure event
        self.requests_parked += 1

    def _copy(self, request: Request, kind: str, now: float) -> Request:
        return Request.create(
            client_id=self.client_id,
            replica_group=request.replica_group,
            created_at=now,
            kind=kind,
            key=request.key,
            record_size=request.record_size,
            parent_id=request.request_id,
            id_source=self._id_source,
        )

    def _read_repair(self, request: Request, now: float) -> None:
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
            duplicate = self._copy(request, RequestKind.READ_REPAIR, now)
            self.metrics.on_issue(duplicate)
            self.selector.on_duplicate_send(server_id, now)
            self._place(duplicate, server_id, now)
            self.read_repairs_issued += 1

    # ------------------------------------------------------------------- hedging
    def _hedge(self, request: Request, server_id: Hashable, now: float) -> None:
        """Arm the hedge timer for a freshly dispatched primary read."""
        if request.kind == RequestKind.READ and not request.is_duplicate:
            hedge = self._arm_hedge(request, request.replica_group, server_id)
            if hedge is not None:
                self._hedge_ops[request.request_id] = hedge

    def _send_hedge(self, hedge: Hedge, server_id: Hashable, now: float) -> None:
        duplicate = self._copy(hedge.op, RequestKind.SPECULATIVE, now)
        self._hedge_by_copy[duplicate.request_id] = hedge
        self.metrics.on_issue(duplicate)
        self.hedges_fired += 1
        self._transmit(duplicate, server_id, now)

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
        hedge = self._hedge_by_copy.pop(request.request_id, None)
        if hedge is not None:
            if hedge.done:
                return
            # First response wins: complete the operation now.  The primary's
            # entry stays behind (done) so its straggling response is
            # recognised and swallowed; its server load is still credited —
            # at its actual arrival time — by the on_server_complete above.
            self._close_hedge(hedge)
            self.hedges_won += 1
            primary = hedge.op
            primary.mark_completed(now)
            if primary.dispatched_at is not None:
                policy.record(now - primary.dispatched_at)
            self.metrics.on_client_complete(primary)
            return
        hedge = self._hedge_ops.pop(request.request_id, None)
        if hedge is not None:
            if hedge.done:
                # A copy already completed this operation; the primary's
                # straggler response is swallowed (latency-wise — its load
                # contribution was recorded above).
                return
            self._close_hedge(hedge)
        if request.kind == RequestKind.READ and not request.is_duplicate:
            policy.record(response_time)
        self.metrics.on_client_complete(request)

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
