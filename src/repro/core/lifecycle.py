"""One client request lifecycle, shared by the flat, cluster and live clients.

C3 is a client-side mechanism (§3–§4): a client ranks a request's replicas,
rate-limits them, holds a backlog under backpressure and, in Cassandra,
hedges slow reads.  :class:`RequestLifecycle` is that client written once,
the base class of :class:`~repro.simulator.client.SimClient`,
:class:`~repro.cluster.coordinator.Coordinator` and
:class:`~repro.live.client.LiveLoadClient`.  It owns liveness filtering and
``selector.submit``; the backlog retry chain; all-suspect parking; the
release of each placement (send it — or, when the detector now holds its
replica down, hand the slot back and park the request — then the read-repair
hook, then the hedge arm); and the hedge timer, which fires to a random
unused live replica and re-arms while budget *and* an unused replica remain.

Policy stays with the selector, the detector and the hedging policy; this
class only enforces their answers.  It reads no clock of its own: every entry
point takes ``now``, and a timer callback reads the injected ``clock`` once,
when it fires.  Adapters supply the I/O, the counters, which releases get a
read repair or start a hedged read, and what completes an operation.  The
batched kernel's :class:`~repro.simulator.kernel.KernelClient` is a
``SimClient`` whose requests are arena slots: it keeps only its hot path
(the arrival's fast submit and dispatch, the response) inline, and every
other step runs here.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Sequence

__all__ = ["Hedge", "RequestLifecycle"]

#: Minimum delay before re-checking a backpressured backlog (ms).
_MIN_RETRY_MS = 0.1

#: Delay before re-trying requests parked because every replica was down (ms).
_PARKED_RETRY_MS = 5.0


@dataclass(slots=True, eq=False)
class Hedge:
    """One read's hedge: the adapter's handle on the operation, the replicas
    holding a copy, the copies fired, and the pending timer.  ``done`` is set
    by the operation's first response; a timer firing after that does nothing.
    ``op`` is never the record that holds this hedge: the two would be a
    reference cycle, left for the collector."""

    op: Any
    group: Sequence[Hashable]
    used: set
    fired: int = 0
    done: bool = False
    timer: Any = None


class RequestLifecycle(ABC):
    """Submit, backlog retry, parking and hedging for one client.

    Parameters
    ----------
    selector:
        The client's :class:`~repro.strategies.base.ReplicaSelector`, handed
        the adapter's own request objects (each with a ``replica_group``,
        or whatever :meth:`_replica_group` reads instead).
    detector / hedging:
        Failure detector and hedging policy, each ``None`` when off.
    rng:
        Generator the hedge target is drawn from.
    schedule / clock:
        ``schedule(delay_ms, fn, *args)`` returning a handle with ``cancel()``
        (``EventLoop.schedule``, or ``call_later`` live), and the time in ms.
    """

    def __init__(
        self,
        selector: Any,
        detector: Any,
        hedging: Any,
        rng: Any,
        schedule: Callable[..., Any],
        clock: Callable[[], float],
    ) -> None:
        self.selector = selector
        self.detector = detector
        self.hedging = hedging
        self.rng = rng
        self._schedule = schedule
        self._clock = clock
        self._retry_timer: Any = None
        self._parked: list = []
        self._parked_timer: Any = None

    # ------------------------------------------------------------ adapter I/O
    @abstractmethod
    def _transmit(self, request: Any, server_id: Any, now: float) -> bool:
        """Put a selected request on the wire; whether it was sent."""

    @abstractmethod
    def _send_hedge(self, hedge: Hedge, server_id: Any, now: float) -> None:
        """Send one hedge copy of ``hedge.op`` to ``server_id``."""

    def _count_backpressure(self, request: Any) -> None:
        """Count one request the selector held back."""

    def _count_park(self, request: Any) -> None:
        """Count one request parked behind an all-suspect group."""

    def _read_repair(self, request: Any, now: float) -> None:
        """Read-repair hook, run after each release whether or not it was sent."""

    def _hedge(self, request: Any, server_id: Any, now: float) -> None:
        """Hedge hook, run after each sent release while hedging is on: call
        :meth:`_arm_hedge` for the requests that start a hedged read."""

    def _replica_group(self, request: Any) -> Sequence[Hashable]:
        """The replicas ``request`` may go to."""
        return request.replica_group

    # ----------------------------------------------------------------- submit
    def _submit(self, request: Any, now: float) -> None:
        """Route a request through liveness filtering and replica selection."""
        candidates = self._replica_group(request)
        detector = self.detector
        if detector is not None and detector.suspicious():
            live = tuple(sid for sid in candidates if detector.is_alive(sid, now))
            if not live:
                self._park(request)
                return
            candidates = live
        decision = self.selector.submit(request, candidates, now)
        if decision.sent:
            self._release(request, decision.server_id, now)
        else:
            self._count_backpressure(request)
            self._schedule_retry(decision.retry_after_ms)

    def _release(self, request: Any, server_id: Any, now: float) -> None:
        """Send one placement, then run its read-repair hook, then arm its hedge."""
        sent = self._place(request, server_id, now)
        self._read_repair(request, now)
        if sent and self.hedging is not None:
            self._hedge(request, server_id, now)

    def _place(self, request: Any, server_id: Any, now: float) -> bool:
        """Send ``request`` to ``server_id`` unless the detector holds it down.

        A placement the selector made earlier (a backlog release) can race
        with a crash: the slot goes back to the selector and the request is
        parked for a fresh selection once a replica is back.
        """
        detector = self.detector
        if detector is not None and detector.suspicious() and not detector.is_alive(server_id, now):
            self.selector.on_timeout(server_id, now)
            self._park(request)
            return False
        return self._transmit(request, server_id, now)

    def _release_all(self, released: Iterable[tuple[Any, Hashable]], now: float) -> None:
        """Release the placements the selector's backlog let go, in its order.

        No retry is scheduled here after a response: the backlog only fills
        through :meth:`_submit`, which schedules one, and
        :meth:`_retry_backlog` keeps one pending until the backlog is empty.
        """
        for request, server_id in released:
            self._release(request, server_id, now)

    def _withdraw(self, request: Any) -> None:
        """Stop waiting for ``request``: out of the selector's backlog and the park."""
        self.selector.cancel(request)
        if request in self._parked:
            self._parked.remove(request)

    # ---------------------------------------------------------------- backlog
    def _schedule_retry(self, delay_ms: float) -> None:
        if self._retry_timer is None:
            self._retry_timer = self._schedule(max(float(delay_ms), _MIN_RETRY_MS), self._retry_backlog)

    def _retry_backlog(self) -> None:
        self._retry_timer = None
        now = self._clock()
        self._release_all(self.selector.drain_backlog(now), now)
        if self.selector.pending_backlog() > 0:
            retry = self.selector.next_retry_ms(now)
            self._schedule_retry(retry if retry is not None else 1.0)

    # ---------------------------------------------------------------- parking
    def _park(self, request: Any) -> None:
        """Hold a request with no live replica; re-submit every ``_PARKED_RETRY_MS``."""
        self._count_park(request)
        self._parked.append(request)
        if self._parked_timer is None:
            self._parked_timer = self._schedule(_PARKED_RETRY_MS, self._retry_parked)

    def _retry_parked(self) -> None:
        self._parked_timer = None
        parked, self._parked = self._parked, []
        now = self._clock()
        for request in parked:
            self._submit(request, now)

    def _cancel_timers(self) -> None:
        """Cancel the pending backlog retry and park tick (hedges close with their ops)."""
        for timer in (self._retry_timer, self._parked_timer):
            if timer is not None:
                timer.cancel()
        self._retry_timer = self._parked_timer = None

    # ---------------------------------------------------------------- hedging
    def _arm_hedge(self, op: Any, group: Sequence[Hashable], server_id: Any) -> Hedge | None:
        """Start hedging ``op``, whose first copy went to ``server_id``
        (``None`` while the policy warms up)."""
        threshold = self.hedging.threshold_ms()
        if threshold is None:
            return None
        hedge = Hedge(op, group, {server_id})
        hedge.timer = self._schedule(threshold, self._fire_hedge, hedge)
        return hedge

    def _fire_hedge(self, hedge: Hedge) -> None:
        """Issue one extra copy of a still-open read to a fresh live replica."""
        hedge.timer = None
        if hedge.done:
            return
        now = self._clock()
        candidates = [sid for sid in hedge.group if sid not in hedge.used]
        detector = self.detector
        if detector is not None and detector.suspicious():
            candidates = [sid for sid in candidates if detector.is_alive(sid, now)]
        if candidates:
            target = candidates[int(self.rng.integers(len(candidates)))]
            hedge.used.add(target)
            hedge.fired += 1
            self.selector.on_duplicate_send(target, now)
            self._send_hedge(hedge, target, now)
        # Re-arm while budget and an unused replica remain: with every unused
        # replica suspect, hedging resumes once one recovers; once every
        # replica holds a copy, a re-armed timer would only find nothing.
        policy = self.hedging
        if hedge.fired < policy.max_extra and len(hedge.used) < len(hedge.group):
            threshold = policy.threshold_ms()
            if threshold is not None:
                hedge.timer = self._schedule(threshold, self._fire_hedge, hedge)

    def _close_hedge(self, hedge: Hedge) -> None:
        """The operation's first response arrived: stop its hedge timer."""
        hedge.done = True
        if hedge.timer is not None:
            hedge.timer.cancel()
            hedge.timer = None
