"""One scripted request lifecycle, run on the flat, cluster and live clients.

``SimClient``, ``Coordinator`` and ``LiveLoadClient`` share
:class:`~repro.core.lifecycle.RequestLifecycle`.  Each gets a small harness
here — the simulators on an :class:`EventLoop` with sink servers, live on
stub transports with responses handed to ``_on_response`` — and every harness
runs the same fixed script:

- six reads against a C3 limiter that admits one per replica per window:
  three are backpressured, then drained;
- the same with every replica held down before the drain releases the
  backlog, plus a read submitted while they are down: all of them park,
  and go out once the replicas recover;
- a warmed hedge policy with a budget beyond the group: two hedges put a
  copy on every replica, then a hedge copy answers first and the other two
  copies straggle in.

Each phase asserts that every operation closes exactly once, that the
selector's outstanding counts and backlog return to zero, that nothing is
sent to a replica the detector holds down, and that the hedge budget holds
with no re-arm once every replica holds a copy.  The ways the clients are
meant to differ are named in their harnesses.
"""

from __future__ import annotations

import asyncio
import json
from collections import Counter

import numpy as np
import pytest

from repro.cluster.coordinator import Coordinator
from repro.cluster.metrics import ClusterMetrics
from repro.controls.hedging import QuantileHedging
from repro.core.feedback import ServerFeedback
from repro.live.client import LiveLoadClient
from repro.simulator.client import SimClient
from repro.simulator.engine import EventLoop
from repro.simulator.metrics import MetricsCollector
from repro.simulator.network import ConstantLatency
from repro.simulator.request import Request, RequestKind
from repro.strategies.spec import StrategySpec
from repro.workloads.ycsb import Operation

GROUP = (0, 1, 2)
#: One permit per replica per 10 ms window: a burst of six backpressures three.
STRATEGY = "c3:initial_rate=1,rate_delta_ms=10"
#: Hedge threshold 1 ms once warmed; a budget of three on a three-replica group.
WARM_SAMPLES = 20


def _policy() -> QuantileHedging:
    return QuantileHedging(quantile=0.5, max_extra=3, min_samples=WARM_SAMPLES, history=WARM_SAMPLES)


def _feedback(server_id) -> ServerFeedback:
    return ServerFeedback(queue_size=0, service_time=1.0, server_id=server_id)


class ScriptedDetector:
    """Holds the replicas in ``down`` suspect until the script clears them."""

    def __init__(self) -> None:
        self.down: set = set()

    def suspicious(self) -> bool:
        return bool(self.down)

    def is_alive(self, server_id, now) -> bool:
        return server_id not in self.down

    def heartbeat(self, server_id, now) -> None:
        pass


class _Sink:
    """A server that takes requests and never answers on its own."""

    def enqueue(self, request) -> None:
        pass


class _Harness:
    """What the script sees of one client."""

    #: Why this client never parks, if it does not.
    never_parks: str | None = None

    def __init__(self) -> None:
        self.detector = ScriptedDetector()
        #: Unanswered copies as ``(op, server_id, token)``, in send order.
        self.copies: list[tuple[object, int, object]] = []
        #: Copies sent to a replica the detector held down at the time.
        self.violations: list[tuple[object, int]] = []
        self.arms = 0

    def _sent(self, op, server_id, token) -> None:
        if server_id in self.detector.down:
            self.violations.append((op, server_id))
        self.copies.append((op, server_id, token))

    def _count_arms(self) -> None:
        client = self.client
        schedule = client._schedule

        def counting(delay_ms, fn, *args):
            if fn == client._fire_hedge:
                self.arms += 1
            return schedule(delay_ms, fn, *args)

        client._schedule = counting

    def answer(self, copy) -> None:
        self.copies.remove(copy)
        self._respond(copy[2])

    def answer_all(self) -> None:
        while self.copies:
            self.answer(self.copies[0])

    def warm(self) -> None:
        for _ in range(WARM_SAMPLES):
            self.client.hedging.record(1.0)

    @property
    def outstanding(self) -> int:
        return self.client.selector.scorer.total_outstanding()


class FlatHarness(_Harness):
    """``SimClient``.  Intended differences: the hedge policy learns
    dispatch-relative response times, and a read-repair copy never completes
    a read (read repair is off here: each substrate has its own)."""

    def __init__(self) -> None:
        super().__init__()
        self.loop = EventLoop()
        self.metrics = _CountingMetrics()
        self.client = SimClient(
            loop=self.loop,
            client_id="c",
            selector=StrategySpec.parse(STRATEGY).build(rng=np.random.default_rng(0)),
            servers={sid: _Sink() for sid in GROUP},
            network=ConstantLatency(0.1),
            metrics=self.metrics,
            read_repair_probability=0.0,
            rng=np.random.default_rng(1),
            failure_detector=self.detector,
            hedging=_policy(),
        )
        transmit = self.client._transmit

        def checked(request, server_id, now):
            op = request.parent_id if request.parent_id is not None else request.request_id
            self._sent(op, server_id, request)
            return transmit(request, server_id, now)

        self.client._transmit = checked
        self._count_arms()

    def issue(self):
        request = Request.create(
            client_id="c", replica_group=GROUP, created_at=self.loop.now, kind=RequestKind.READ
        )
        self.client.on_request(request)
        return request.request_id

    def _respond(self, request) -> None:
        self.client.on_server_response(request, _feedback(request.server_id), 1.0)

    async def advance(self, ms: float) -> None:
        self.loop.run(until=self.loop.now + ms)

    def closes(self) -> Counter:
        return self.metrics.closes

    def counters(self) -> dict:
        c = self.client
        return {"parked": c.requests_parked, "hedges_fired": c.hedges_fired, "hedges_won": c.hedges_won}


class _CountingMetrics(MetricsCollector):
    def __init__(self) -> None:
        super().__init__()
        self.closes: Counter = Counter()

    def on_client_complete(self, request: Request) -> None:
        if not request.is_duplicate:
            self.closes[request.request_id] += 1
        super().on_client_complete(request)


class _Ring:
    def replicas_for(self, key):
        return GROUP


class ClusterHarness(_Harness):
    """``Coordinator``.  Intended differences: any copy's first response
    completes the operation, the hedge policy learns ``now − issued_at``,
    and writes fan out to every replica without a selection."""

    never_parks = "the cluster has no failure detector: it routes to every replica"

    def __init__(self) -> None:
        super().__init__()
        self.loop = EventLoop()
        self._closes: Counter = Counter()
        self.client = Coordinator(
            loop=self.loop,
            node_id=99,
            ring=_Ring(),
            selector=StrategySpec.parse(STRATEGY).build(rng=np.random.default_rng(0)),
            nodes={sid: _Sink() for sid in GROUP},
            network=ConstantLatency(0.1),
            metrics=ClusterMetrics(),
            read_repair_probability=0.0,
            speculative_retry=_policy(),
            rng=np.random.default_rng(1),
        )
        transmit = self.client._transmit

        def checked(request, server_id, now):
            op = request.parent_id if request.parent_id is not None else request.request_id
            self._sent(op, server_id, request)
            return transmit(request, server_id, now)

        self.client._transmit = checked
        self._count_arms()

    def issue(self):
        def done(request, latency):
            self._closes[request.request_id] += 1

        return self.client.execute(Operation(key=1, is_read=True, record_size=1), done).request_id

    def _respond(self, request) -> None:
        self.client.on_remote_response(request, _feedback(request.server_id), 1.0)

    async def advance(self, ms: float) -> None:
        self.loop.run(until=self.loop.now + ms)

    def closes(self) -> Counter:
        return self._closes

    def counters(self) -> dict:
        return {"parked": 0, "hedges_fired": self.client.speculations_fired, "hedges_won": None}


class _Transport:
    """The two transport methods the live client's send path calls."""

    def __init__(self, server_id: int, harness: "LiveHarness") -> None:
        self.server_id = server_id
        self.harness = harness

    def is_closing(self) -> bool:
        return False

    def write(self, frame: bytes) -> None:
        wire_id = json.loads(frame[4:])["id"]
        op = self.harness.client._pending[wire_id].op_id
        self.harness._sent(op, self.server_id, wire_id)


class LiveHarness(_Harness):
    """``LiveLoadClient``.  Intended differences: latency, which the hedge
    policy learns, runs from the operation's due time; a send is a frame
    under a fresh wire id; no read repair.  Time is the wall clock."""

    def __init__(self) -> None:
        super().__init__()
        self.client = LiveLoadClient([("127.0.0.1", 1)] * len(GROUP), strategy=STRATEGY, seed=0)
        self.client._transports = {sid: _Transport(sid, self) for sid in GROUP}
        self.client.detector = self.detector
        self.client.hedging = _policy()
        self._closes: Counter = Counter()
        self._count_arms()

    def issue(self):
        op_id = self.client._next_id
        self.client._issue(GROUP, "read", self.client.now_ms())
        return op_id

    def _respond(self, wire_id) -> None:
        op_id = self.client._pending[wire_id].op_id
        completed = self.client.result.completed
        self.client._on_response({"t": "res", "id": wire_id, "queue_size": 0, "service_time_ms": 1.0})
        if self.client.result.completed > completed:
            self._closes[op_id] += 1

    async def advance(self, ms: float) -> None:
        await asyncio.sleep(ms / 1000.0)

    def closes(self) -> Counter:
        assert self.client.result.completed == sum(self._closes.values())
        return self._closes

    def counters(self) -> dict:
        r = self.client.result
        return {"parked": r.parked, "hedges_fired": r.hedges_fired, "hedges_won": r.hedges_won}


HARNESSES = {"flat": FlatHarness, "cluster": ClusterHarness, "live": LiveHarness}


async def _drain(h: _Harness, ops, rounds: int = 400) -> None:
    """Answer every copy on the wire until each of ``ops`` has closed."""
    for _ in range(rounds):
        h.answer_all()
        if all(h.closes()[op] for op in ops):
            break
        await h.advance(2.0)
    h.answer_all()


def _assert_closed_once(h: _Harness, ops) -> None:
    closes = h.closes()
    assert {op: closes[op] for op in ops} == {op: 1 for op in ops}
    assert h.outstanding == 0
    assert h.client.selector.pending_backlog() == 0
    assert h.violations == []


def _run(script, name: str):
    harness = HARNESSES[name]()
    asyncio.run(script(harness))
    return harness


@pytest.mark.parametrize("name", sorted(HARNESSES))
def test_backpressured_reads_drain_and_close_once(name):
    async def script(h):
        ops = [h.issue() for _ in range(6)]
        assert len(h.copies) == 3  # one permit per replica
        await _drain(h, ops)
        _assert_closed_once(h, ops)

    _run(script, name)


@pytest.mark.parametrize("name", sorted(n for n, h in HARNESSES.items() if h.never_parks is None))
def test_all_suspect_parks_and_recovers(name):
    async def script(h):
        ops = [h.issue() for _ in range(6)]
        assert len(h.copies) == 3
        # Every replica goes down before the backlog drains: its releases
        # must be handed back and parked, not sent.
        h.detector.down = set(GROUP)
        ops.append(h.issue())  # nothing live to select: parked at submit
        h.answer_all()
        await h.advance(30.0)
        assert h.violations == []
        assert h.copies == [] and h.counters()["parked"] >= 4
        h.detector.down.clear()
        await _drain(h, ops)
        _assert_closed_once(h, ops)

    _run(script, name)


@pytest.mark.parametrize("name", sorted(HARNESSES))
def test_hedges_use_the_group_then_the_first_answer_wins(name):
    async def script(h):
        h.warm()
        op = h.issue()
        ((_, primary, _),) = h.copies
        for _ in range(200):
            await h.advance(1.0)
            if len(h.copies) == len(GROUP):
                break
        await h.advance(10.0)
        # Two hedges put a copy on every replica; the budget of three is
        # never reached and the timer is not armed a third time.
        assert sorted(server for _, server, _ in h.copies) == list(GROUP)
        assert h.arms == 2 and h.counters()["hedges_fired"] == 2
        # A hedge copy answers first and wins; the other two straggle in.
        h.answer(h.copies[-1])
        assert h.closes()[op] == 1
        h.answer_all()
        await h.advance(5.0)
        _assert_closed_once(h, [op])
        assert h.counters()["hedges_won"] in (1, None)  # the cluster keeps no win count

    _run(script, name)
