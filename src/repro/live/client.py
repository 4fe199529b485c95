"""Async load generator: the simulator's client loop over real TCP.

:class:`LiveLoadClient` drives the *identical* strategy/control registries
the simulator uses — the selector built from a canonical
:class:`~repro.strategies.spec.StrategySpec`, the failure detector and
quantile-hedging policy from :class:`~repro.controls.spec.ControlSpec`
strings — against live replica servers (:mod:`repro.live.server`):

- **Open-loop Poisson arrivals on an absolute schedule**:
  :func:`arrival_schedule` is the simulator workload module's process —
  exponential inter-arrival gaps at a fixed rate, each arrival assigned a
  ring-placement replica group
  (:func:`~repro.simulator.workload.replica_groups`) uniformly at random —
  as a pure iterator of ``(due_ms, group, kind)``, a function of
  ``(seed, rate, duration)`` alone, drawn through
  :mod:`~repro.core.samplers` (bit for bit the ``Generator`` methods).
  :meth:`LiveLoadClient.run` only turns it into a chain of event-loop
  timers: each arrival's callback issues it and arms the next arrival's
  ``call_at`` at its due time, so an arrival is issued *at* its due time,
  or at once when it is late (a late timer still waits one loop iteration,
  so responses are read between the issues of a catch-up burst).  A slow
  host or a coarse timer (epoll rounds every timeout up to a whole
  millisecond) delays operations but never removes them from the offered
  load.
- **Latency from the intended time**: an operation's clock starts at its
  due time, not at the moment the generator got round to issuing it, so
  the wait a late client imposes is part of ``latency_ms`` (coordinated
  omission corrected) and of the request timeout.  How late the generator
  ran is reported separately as ``slip_ms`` (``issue − due``).
- **Every operation is accounted for**: it completes, or the reaper closes
  it as a timeout ``request_timeout_ms`` after its due time wherever it is
  waiting — on the wire, in C3's backpressure backlog (which it is
  cancelled from), parked behind an all-suspect group, or rejected by the
  replica it was sent to — so ``issued == completed + timeouts`` whenever
  :meth:`~LiveLoadClient.run` returns.
- **Real feedback**: every response frame piggybacks the server's queue
  size and EWMA service time, which become the
  :class:`~repro.core.feedback.ServerFeedback` the selector's
  ``on_response`` sees — C3's scoring/EWMA/cubic rate control run
  unmodified.
- **One lifecycle**: submit, backlog retry, all-suspect parking and the
  hedge timer are the shared :class:`~repro.core.lifecycle.RequestLifecycle`
  on the event loop's ``call_later``; responses double as detector
  heartbeats (the phi-accrual detector works off real silence).
- **Callbacks, not tasks, on the data path**: each server connection is an
  ``asyncio.Protocol`` whose ``data_received`` feeds a
  :class:`~repro.live.protocol.FrameDecoder` and hands each response to the
  client directly, and each request is one
  :func:`~repro.live.protocol.encode_request` frame.  A frame that is well
  framed but unreadable (not JSON, not an object, a response without its
  fields) is dropped and its wire request times out; only a framing error
  (a length over the cap) ends the connection.

The wall clock is ``time.monotonic()`` in milliseconds **relative to
client construction**, so ``now`` values handed to selectors/detectors
start near zero and advance the way simulator time does; the harness runs
the scenario timeline and the warm-up/cool-down trim on the same clock.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, NamedTuple, Sequence

import numpy as np

from ..controls.spec import ControlSpec
from ..core import samplers
from ..core.feedback import ServerFeedback
from ..core.lifecycle import Hedge, RequestLifecycle
from ..simulator.workload import replica_groups
from ..strategies.spec import StrategySpec
from .protocol import FrameDecoder, ProtocolError, decode_body, encode_request

__all__ = ["LiveClientResult", "LiveLoadClient", "arrival_schedule"]

#: How often the reaper scans for request timeouts (ms).
_REAPER_INTERVAL_MS = 50.0


def arrival_schedule(
    rng: np.random.Generator,
    rate_per_ms: float,
    duration_ms: float,
    groups: Sequence[tuple[int, ...]],
    read_fraction: float,
) -> Iterator[tuple[float, tuple[int, ...], str]]:
    """Open-loop Poisson arrivals as ``(due_ms, group, kind)``, no clock involved.

    ``due_ms`` counts from the start of the run: ``due_k = due_{k-1} + gap_k``
    with exponential gaps, ending before the first ``due_k >= duration_ms``.
    Each arrival draws gap, then group, then kind from ``rng``, so the
    sequence depends on the generator's seed, the rate and the duration and
    on nothing the host does.  The draws are ``rng.exponential(1 / rate)``,
    ``rng.integers(len(groups))`` and ``rng.random()`` through
    :mod:`~repro.core.samplers`: the same values and generator states.
    """
    inv_rate = 1.0 / rate_per_ms
    next_gap = samplers.standard_exponential(rng)
    next_group = samplers.below(rng, len(groups))
    next_coin = samplers.uniform(rng)
    due_ms = 0.0
    while True:
        due_ms += inv_rate * next_gap()
        if due_ms >= duration_ms:
            return
        group = groups[next_group()]
        kind = "read" if next_coin() < read_fraction else "write"
        yield due_ms, group, kind


def _call_later(delay_ms: float, fn: Callable[..., object], *args: object) -> asyncio.TimerHandle:
    """The lifecycle's ``schedule`` on the running event loop (delay in ms)."""
    return asyncio.get_running_loop().call_later(delay_ms / 1000.0, fn, *args)


def _slip_summary(slips_ms: Sequence[float]) -> dict[str, float]:
    if not slips_ms:
        return {"mean": 0.0, "p99": 0.0, "max": 0.0}
    # Nearest rank on a sorted list: the first ``np.percentile`` call of a
    # process costs it ~1.3 MB of resident memory, more than a whole trial's state.
    ordered = sorted(slips_ms)
    p99 = ordered[math.ceil(0.99 * len(ordered)) - 1]
    return {"mean": sum(ordered) / len(ordered), "p99": p99, "max": ordered[-1]}


class _Connection(asyncio.Protocol):
    """One data connection: frames in, each response to ``on_response``."""

    def __init__(self, on_response: Callable[[dict], None]) -> None:
        self._on_response = on_response
        self._decoder = FrameDecoder()
        self.transport: Any = None

    def connection_made(self, transport: Any) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        try:
            bodies = self._decoder.feed(data)
        except ProtocolError:
            # A length over the cap: no later frame boundary can be trusted.
            self.transport.close()
            return
        for body in bodies:
            try:
                message = decode_body(body)
            except ProtocolError:
                continue  # well framed but unreadable: dropped
            if message.get("t") == "res":
                self._on_response(message)


class _Pending(NamedTuple):
    """One in-flight wire request (primary or hedge copy).

    A wire request outlives its operation: the loser of a hedged pair still
    reports feedback, or times out ``request_timeout_ms`` after it was sent,
    and either way hands its slot back to the selector.
    """

    op_id: int
    server_id: int
    sent_ms: float
    hedge: bool


@dataclass(eq=False, slots=True)
class _Operation:
    """One logical client operation (may fan out into hedged duplicates).

    ``created_ms`` is the time the schedule *intended* it to be issued;
    latency and ``deadline_ms`` (``created_ms + request_timeout_ms``) are
    measured from there.  It is the request object the selector sees, so it
    compares by identity.
    """

    op_id: int
    replica_group: tuple[int, ...]
    kind: str
    created_ms: float
    deadline_ms: float
    done: bool = False
    #: The read's hedge, once armed.
    hedge: Hedge | None = None


@dataclass
class LiveClientResult:
    """Counters from one load-generation run."""

    issued: int = 0
    completed: int = 0
    timeouts: int = 0
    rejected: int = 0
    backpressure: int = 0
    parked: int = 0
    hedges_fired: int = 0
    hedges_won: int = 0
    #: ``issue − due`` over every operation (ms): how late the generator ran.
    slip_ms: dict[str, float] = field(default_factory=lambda: _slip_summary(()))
    sent_per_server: dict[int, int] = field(default_factory=dict)
    selector_stats: dict[str, Any] = field(default_factory=dict)


class LiveLoadClient(RequestLifecycle):
    """Replay the simulator's client behavior against live servers.  Its
    intended differences from the flat and cluster clients:

    - **I/O**: a send is a frame under a fresh wire id; a closed writer hands
      the slot straight back.  The reaper times out wire requests and
      operations, withdrawing the latter from the backlog and the park; one
      a custom selector (no ``cancel``) still held is handed back on release.
    - **Completion**: the first answered copy completes the operation, and
      latency — which the hedge policy learns — runs from its due time.
      A rejected copy completes nothing.  No read repair.
    """

    def __init__(
        self,
        addresses: Sequence[tuple[str, int]],
        *,
        strategy: "str | StrategySpec" = "c3",
        failure_detector: "str | ControlSpec | None" = None,
        hedging: "str | ControlSpec | None" = None,
        replication_factor: int = 3,
        arrival_rate_per_s: float = 200.0,
        read_fraction: float = 1.0,
        request_timeout_ms: float = 2_000.0,
        seed: int = 0,
        on_complete: Callable[[float, float], None] | None = None,
    ) -> None:
        if not addresses:
            raise ValueError("need at least one server address")
        if arrival_rate_per_s <= 0:
            raise ValueError(f"arrival_rate_per_s must be positive, got {arrival_rate_per_s}")
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError(f"read_fraction must be in [0, 1], got {read_fraction}")
        self.addresses = list(addresses)
        n = len(self.addresses)
        self.groups = replica_groups(n, replication_factor)
        self.rate_per_ms = arrival_rate_per_s / 1000.0
        self.read_fraction = float(read_fraction)
        self.request_timeout_ms = float(request_timeout_ms)
        #: ``on_complete(completed_at_ms, latency_ms)`` per finished op.
        self.on_complete = on_complete
        root = np.random.default_rng(seed)
        self._wl_rng, sel_rng, cli_rng = root.spawn(3)
        self.strategy_spec = StrategySpec.parse(strategy)
        selector = self.strategy_spec.build(rng=sel_rng)
        detector: Any = None
        if failure_detector is not None:
            spec = ControlSpec.parse(failure_detector, kind="detector")
            # Live servers expose no ground-truth liveness, so the binary
            # detector degrades to never-suspicious; phi is the real one.
            detector = spec.build(down_tracker=None, servers=None)
        super().__init__(
            selector=selector,
            detector=detector,
            hedging=None if hedging is None else ControlSpec.parse(hedging, kind="hedge").build(),
            rng=cli_rng,
            schedule=_call_later,
            clock=self.now_ms,
        )
        self.result = LiveClientResult(
            sent_per_server={sid: 0 for sid in range(n)},
        )
        self._transports: dict[int, asyncio.Transport] = {}
        self._ops: dict[int, _Operation] = {}
        self._pending: dict[int, _Pending] = {}
        self._next_id = 0
        self._stop = False
        #: Set when the last open operation closes, once the drain waits for it.
        self._drained: asyncio.Future[None] | None = None
        #: ``issue − due`` of every operation issued so far, in schedule order (ms).
        self.slips_ms: list[float] = []
        self._epoch = time.monotonic()

    # --------------------------------------------------------------- clock
    def now_ms(self) -> float:
        """Milliseconds since this client was constructed (monotonic)."""
        return (time.monotonic() - self._epoch) * 1000.0

    # ---------------------------------------------------------- connection
    async def connect(self) -> None:
        loop = asyncio.get_running_loop()
        for sid, (host, port) in enumerate(self.addresses):
            transport, _ = await loop.create_connection(lambda: _Connection(self._on_response), host, port)
            self._transports[sid] = transport

    async def close(self) -> None:
        self._stop = True
        for transport in self._transports.values():
            transport.close()

    # ----------------------------------------------------------------- run
    def schedule(self, duration_s: float) -> Iterator[tuple[float, tuple[int, ...], str]]:
        """This client's :func:`arrival_schedule` for a run of ``duration_s``."""
        return arrival_schedule(
            self._wl_rng, self.rate_per_ms, duration_s * 1000.0, self.groups, self.read_fraction
        )

    async def run(self, duration_s: float, drain_grace_s: float | None = None) -> LiveClientResult:
        """Offer the schedule's load for ``duration_s``, then drain open operations.

        Arrivals are a chain of ``call_at`` timers, each armed by the one
        before; the drain ends when the last open operation closes, or after
        the grace (``request_timeout_ms`` unless given).
        """
        loop = asyncio.get_running_loop()
        arrivals = self.schedule(duration_s)
        offered: asyncio.Future[None] = loop.create_future()
        start_ms = self.now_ms()
        start_s = loop.time()
        timer: asyncio.TimerHandle | None = None

        def arm_next() -> None:
            nonlocal timer
            arrival = next(arrivals, None)
            if arrival is None:
                offered.set_result(None)
                return
            due_ms, group, kind = arrival
            timer = loop.call_at(start_s + due_ms / 1000.0, arrive, start_ms + due_ms, group, kind)

        def arrive(due_ms: float, group: tuple[int, ...], kind: str) -> None:
            if self._stop:
                offered.set_result(None)
                return
            try:
                self._issue(group, kind, due_ms)
                arm_next()
            except Exception as error:
                offered.set_exception(error)

        reaper = asyncio.create_task(self._reap_timeouts(), name="reaper")
        try:
            arm_next()
            await offered
            grace = self.request_timeout_ms / 1000.0 if drain_grace_s is None else drain_grace_s
            if self._ops:
                self._drained = loop.create_future()
                await asyncio.wait((self._drained,), timeout=grace)
        finally:
            self._stop = True
            if timer is not None:
                timer.cancel()
            reaper.cancel()
            await asyncio.gather(reaper, return_exceptions=True)
            # Whatever is still open will never be answered now.
            self._time_out(list(self._ops.values()))
            self._cancel_timers()
        self.result.slip_ms = _slip_summary(self.slips_ms)
        self.result.selector_stats = dict(self.selector.stats())
        return self.result

    # --------------------------------------------------------------- issue
    def _issue(self, group: tuple[int, ...], kind: str, due_ms: float) -> None:
        now = self.now_ms()
        self.slips_ms.append(now - due_ms)
        op_id = self._next_id
        self._next_id += 1
        op = _Operation(
            op_id=op_id,
            replica_group=group,
            kind=kind,
            created_ms=due_ms,
            deadline_ms=due_ms + self.request_timeout_ms,
        )
        self._ops[op_id] = op
        self.result.issued += 1
        self._submit(op, now)

    # ------------------------------------------------------- lifecycle I/O
    def _count_backpressure(self, op: _Operation) -> None:
        # The selector holds the operation in its own backlog (C3's submit
        # enqueues on backpressure); the lifecycle schedules the drain.
        self.result.backpressure += 1

    def _count_park(self, op: _Operation) -> None:
        self.result.parked += 1

    def _release(self, op: _Operation, server_id: int, now: float) -> None:
        if op.done:
            # Timed out while backlogged by a custom selector without
            # cancel(): it has already charged the replica for a send that
            # will not happen.
            self.selector.on_timeout(server_id, now)
            return
        super()._release(op, server_id, now)

    def _transmit(self, op: _Operation, server_id: int, now: float, hedge: bool = False) -> bool:
        """One copy of ``op`` onto ``server_id``'s socket; whether it was written."""
        server_id = int(server_id)
        transport = self._transports[server_id]
        if transport.is_closing():
            self.selector.on_timeout(server_id, now)
            return False
        wire_id = self._next_id
        self._next_id += 1
        self._pending[wire_id] = _Pending(op.op_id, server_id, now, hedge)
        self.result.sent_per_server[server_id] = self.result.sent_per_server.get(server_id, 0) + 1
        # Never blocks: the transport sends what the socket takes and buffers the rest.
        transport.write(encode_request(wire_id, op.kind))
        return True

    def _hedge(self, op: _Operation, server_id: int, now: float) -> None:
        if op.kind == "read":
            op.hedge = self._arm_hedge(op.op_id, op.replica_group, server_id)

    def _send_hedge(self, hedge: Hedge, server_id: int, now: float) -> None:
        self.result.hedges_fired += 1
        self._transmit(self._ops[hedge.op], server_id, now, hedge=True)

    # ------------------------------------------------------------ responses
    def _on_response(self, message: dict) -> None:
        now = self.now_ms()
        rejected = message.get("rejected")
        try:
            wire_id = int(message["id"])
            if not rejected:
                queue_size = int(message["queue_size"])
                service_time = float(message["service_time_ms"])
        except (KeyError, TypeError, ValueError, OverflowError):
            return  # unreadable: dropped, and its wire request times out
        pending = self._pending.pop(wire_id, None)
        if pending is None:
            return  # already timed out
        op_id, sid, sent_ms, hedge = pending
        if self.detector is not None:
            self.detector.heartbeat(sid, now)
        if rejected:
            # Never serviced: release the selector's outstanding slot but
            # record no feedback-driven EWMA fold or latency.  The operation
            # stays open until its deadline.
            self.result.rejected += 1
            self.selector.on_timeout(sid, now)
            return
        feedback = ServerFeedback(queue_size=queue_size, service_time=service_time, server_id=sid)
        released = self.selector.on_response(sid, feedback, now - sent_ms, now)
        op = self._ops.pop(op_id, None)
        if op is not None:
            op.done = True
            self.result.completed += 1
            if op.hedge is not None:
                self._close_hedge(op.hedge)
            if hedge:
                self.result.hedges_won += 1
            latency = now - op.created_ms
            if self.hedging is not None and op.kind == "read":
                self.hedging.record(latency)
            if self.on_complete is not None:
                self.on_complete(now, latency)
            self._wake_drain()
        self._release_all(released, now)

    def _wake_drain(self) -> None:
        """End the drain once no operation is open."""
        drained = self._drained
        if not self._ops and drained is not None and not drained.done():
            drained.set_result(None)

    # -------------------------------------------------------------- reaper
    async def _reap_timeouts(self) -> None:
        timeout = self.request_timeout_ms
        while not self._stop:
            await asyncio.sleep(_REAPER_INTERVAL_MS / 1000.0)
            now = self.now_ms()
            # Wire requests: hand the slot of each unanswered one back.
            expired = [wid for wid, pending in self._pending.items() if pending.sent_ms + timeout <= now]
            for wire_id in expired:
                self.selector.on_timeout(self._pending.pop(wire_id).server_id, now)
            # Operations, wherever they wait.  ``_ops`` is in due order and
            # the timeout is one constant, so the expired ones are a prefix.
            overdue = []
            for op in self._ops.values():
                if op.deadline_ms > now:
                    break
                overdue.append(op)
            self._time_out(overdue)

    def _time_out(self, ops: Sequence[_Operation]) -> None:
        """Close ``ops`` as timeouts.  One still in the selector's backlog or
        the park is withdrawn, so no release spends a permit on it and no
        retry waits for it."""
        for op in ops:
            op.done = True
            self.result.timeouts += 1
            self._withdraw(op)
            if op.hedge is not None:
                self._close_hedge(op.hedge)
            del self._ops[op.op_id]
        self._wake_drain()
