"""One scripted server run on the simulator's server and on the live one.

``SimServer`` and the live ``ReplicaServer`` both run
:class:`~repro.replica.ReplicaCore`.  Each gets a harness here on a
simulator :class:`EventLoop` (the live server takes it through its ``loop``
seam, and answers into a stub writer), and every harness runs the same
fixed script:

- a burst of arrivals on two slots, then more under a slowdown from two
  sources at once, one of which is withdrawn;
- a crash with two requests in service and two queued, two arrivals while
  the server is down, and a restore before the requests in service finish;
- a pause with two requests in service and four arrivals behind it.

Each harness records every response as ``(time, op, rejected, queue_size,
service_time)`` and each request's fate: served, rejected or dropped.  The
live server is meant to differ from ``SimServer`` only where it is a real
process; those differences are named in :class:`LiveRulesOnSim`, which
applies them to a ``SimServer``, and the live server's record must equal
that one exactly.  No socket, no wall clock.
"""

from __future__ import annotations

import json

import numpy as np

from repro.live.server import ReplicaServer
from repro.simulator.engine import EventLoop
from repro.simulator.request import Request
from repro.simulator.server import SimServer

SLOTS = 2
BASE_MS = 4.0
#: The live queue's bound: the pause's fourth arrival finds it full.
CAPACITY = 3


class _Harness:
    """What the script sees of one server."""

    def __init__(self) -> None:
        self.loop = EventLoop()
        self.responses: list[tuple] = []
        self.issued: list[int] = []
        self._next = 0

    def arrive(self, count: int) -> None:
        for _ in range(count):
            self.issued.append(self._next)
            self._arrive(self._next)
            self._next += 1

    def advance(self, ms: float) -> None:
        self.loop.run(until=self.loop.now + ms)

    def _answered(self, op: int, rejected: bool, queue_size, service_time) -> None:
        self.responses.append((self.loop.now, op, rejected, queue_size, service_time))

    def fates(self) -> dict[int, str]:
        fates = {op: "dropped" for op in self.issued}
        for _, op, rejected, _, _ in self.responses:
            fates[op] = "rejected" if rejected else "served"
        return fates


class SimHarness(_Harness):
    """``SimServer``: a crash stalls it, so it serves every request in the end."""

    def __init__(self) -> None:
        super().__init__()
        self.server = SimServer(
            self.loop, 0, base_service_time_ms=BASE_MS, concurrency=SLOTS,
            rng=np.random.default_rng(0), deterministic=True, on_complete=self._complete,
        )
        self.requests: dict[int, Request] = {}

    def _arrive(self, op: int) -> None:
        request = Request.create(
            client_id=0, replica_group=(0,), created_at=self.loop.now, id_source=iter([op])
        )
        self.requests[op] = request
        self.server.enqueue(request)

    def _complete(self, request, feedback, service_time) -> None:
        self._answered(request.request_id, False, feedback.queue_size, feedback.service_time)

    def slow(self, factor: float, source) -> None:
        self.server.set_service_time_multiplier(factor, source)

    def crash(self) -> None:
        self.server.crash()

    def restore(self) -> None:
        self.server.restore()

    def pause(self, ms: float) -> None:
        # As a cluster node's GC pause: the core's stall for ``ms``.
        self.server.crash()
        self.loop.post(ms, self.server.restore)


class LiveRulesOnSim(SimHarness):
    """``SimServer`` with the live server's intended differences applied.

    - The live queue is bounded: an arrival that finds ``CAPACITY``
      requests waiting is rejected at once, with the server's feedback.
    - A live crash is a process going down: its queue is lost, requests in
      service finish without an answer (also when the restore comes
      first), and arrivals while it is down are dropped unanswered.
    - The requests in service at a crash take nothing with them: their
      slots are free at once, and their service times never reach the
      counters or the service-time EWMA.

    A pause is no difference: both servers stall in the core.
    """

    def __init__(self) -> None:
        super().__init__()
        self.crashed = False
        self.finished: set[int] = set()
        self.lost: set[int] = set()
        # The server's completions come here first (the instance attribute
        # shadows the method it posts).
        self.server._finish_service = self._finish_service

    def _arrive(self, op: int) -> None:
        if self.crashed:
            return
        if self.server.queue_length >= CAPACITY:
            feedback = self.server.feedback_snapshot()
            self._answered(op, True, feedback.queue_size, feedback.service_time)
            return
        super()._arrive(op)

    def _finish_service(self, request, service_time) -> None:
        if request.request_id not in self.lost:
            SimServer._finish_service(self.server, request, service_time)

    def _complete(self, request, feedback, service_time) -> None:
        self.finished.add(request.request_id)
        super()._complete(request, feedback, service_time)

    def crash(self) -> None:
        self.crashed = True
        self.server.crash()
        self.server._queue.clear()
        self.lost |= {
            op for op, request in self.requests.items()
            if request.started_service_at is not None and op not in self.finished
        }
        self.server._in_service = 0

    def restore(self) -> None:
        self.crashed = False
        super().restore()


class _Writer:
    """The two ``StreamWriter`` methods the live server's answers call."""

    def __init__(self, harness: "LiveHarness") -> None:
        self.harness = harness

    def is_closing(self) -> bool:
        return False

    def write(self, frame: bytes) -> None:
        m = json.loads(frame[4:])
        self.harness._answered(m["id"], m["rejected"], m["queue_size"], m["service_time_ms"])


class LiveHarness(_Harness):
    """``ReplicaServer`` on the simulator's loop, driven by its own frames."""

    def __init__(self) -> None:
        super().__init__()
        self.server = ReplicaServer(
            0, base_service_ms=BASE_MS, concurrency=SLOTS, queue_capacity=CAPACITY,
            deterministic=True, loop=self.loop,
        )
        self.writer = _Writer(self)

    def _arrive(self, op: int) -> None:
        self.server._arrive({"t": "req", "id": op, "kind": "read"}, self.writer)

    def _control(self, op: str, **fields) -> None:
        assert "error" not in self.server._handle_control({"t": "ctl", "op": op, **fields})

    def slow(self, factor: float, source) -> None:
        if source is None:
            self._control("slow", factor=factor)
        else:
            # A ``slow`` frame sets the default source; a second source is
            # the core's own control.
            self.server.set_service_time_multiplier(factor, source)

    def crash(self) -> None:
        self._control("crash")

    def restore(self) -> None:
        self._control("restore")

    def pause(self, ms: float) -> None:
        self._control("pause", duration_ms=ms)

    def stats(self) -> dict:
        return self.server._handle_control({"op": "stats"})["stats"]


def _script(h: _Harness) -> dict[str, int]:
    """Run the script; return the index of the crash's and the pause's first response."""
    marks = {}
    h.arrive(5)  # two in service, three queued: the live queue is full
    h.advance(10.0)
    h.slow(2.0, None)
    h.slow(3.0, "gc")  # 6x, from two sources
    h.arrive(3)
    h.advance(30.0)
    h.slow(1.0, "gc")  # withdrawn: 2x
    h.arrive(1)
    h.advance(200.0)

    marks["crash"] = len(h.responses)
    h.arrive(4)  # two in service (8 ms each), two queued
    h.advance(1.0)
    h.crash()
    h.arrive(2)
    h.advance(2.0)
    h.restore()  # before the two in service finish
    h.advance(200.0)
    h.arrive(2)
    h.advance(200.0)

    marks["pause"] = len(h.responses)
    h.arrive(2)  # both in service
    h.advance(1.0)
    h.pause(20.0)
    h.arrive(4)  # three queue behind the pause; the fourth finds the live queue full
    h.advance(200.0)
    return marks


def _run(harness_cls) -> tuple[_Harness, dict[str, int]]:
    harness = harness_cls()
    return harness, _script(harness)


def test_the_live_server_is_the_sim_server_with_its_named_differences():
    live, live_marks = _run(LiveHarness)
    model, model_marks = _run(LiveRulesOnSim)
    assert live.responses == model.responses
    assert live.fates() == model.fates()
    assert live_marks == model_marks


def test_without_a_crash_or_a_full_queue_the_servers_agree():
    live, marks = _run(LiveHarness)
    sim, sim_marks = _run(SimHarness)
    before = marks["crash"]
    assert before == sim_marks["crash"] == 9
    assert live.responses[:before] == sim.responses[:before]
    # The two-source slowdown reached the feedback: 6 x 4 ms services.
    assert max(service_time for *_, service_time in live.responses[:before]) > 5 * BASE_MS


def test_the_differences_show_on_this_script():
    live, _ = _run(LiveHarness)
    sim, _ = _run(SimHarness)
    fates = live.fates()
    assert set(sim.fates().values()) == {"served"}
    assert [fates[op] for op in range(9, 15)] == ["dropped"] * 6  # in service, queued, arrived while down
    assert [fates[op] for op in range(15, 23)] == ["served"] * 7 + ["rejected"]
    stats = live.stats()
    counts = {fate: list(fates.values()).count(fate) for fate in ("served", "rejected", "dropped")}
    # Each request is counted once on arrival, and an accepted one once more
    # when it is served or dropped.
    assert stats["accepted"] + stats["rejected"] + stats["enqueued_while_down"] == len(fates)
    assert (stats["served"], stats["rejected"]) == (counts["served"], counts["rejected"])
    assert stats["dropped"] + stats["enqueued_while_down"] == counts["dropped"]
    assert stats["accepted"] == stats["served"] + stats["dropped"]


def test_responses_during_a_pause_count_the_requests_stalled_behind_it():
    live, marks = _run(LiveHarness)
    pause = [(op, rejected, queue_size) for _, op, rejected, queue_size, _ in live.responses[marks["pause"]:]]
    # The full-queue rejection goes out first; the two in service answer
    # during the pause with three queued behind them; the three follow.
    assert pause == [
        (22, True, 5), (17, False, 4), (18, False, 3), (19, False, 2), (20, False, 1), (21, False, 0)
    ]


def test_overlapping_live_pauses_stall_until_the_last_one_ends():
    h = LiveHarness()
    h.pause(20.0)
    h.advance(5.0)
    h.pause(30.0)  # ends at 35 ms, after the first
    h.arrive(1)
    h.advance(100.0)
    # Stalled until 35 ms, then one 4 ms service.
    assert [(t, op) for t, op, *_ in h.responses] == [(39.0, 0)]


def test_live_crashes_and_pauses_overlap_without_ending_each_other():
    h = LiveHarness()
    h.pause(20.0)
    h.advance(1.0)
    h.crash()
    h.restore()  # the pause still holds the stall
    h.arrive(1)
    h.advance(30.0)
    h.crash()
    h.pause(5.0)
    h.advance(10.0)  # the pause is over, the crash is not
    h.arrive(1)
    h.restore()
    h.arrive(1)
    h.advance(30.0)
    assert [(t, op) for t, op, *_ in h.responses] == [(24.0, 0), (45.0, 2)]
    assert h.fates()[1] == "dropped"


def test_a_live_crash_frees_the_slots_of_the_requests_in_service():
    """A crash shorter than a service: the restored process has both slots
    free, so an arrival after the restore starts at once (answered at 6 ms,
    not behind the lost services at 8 ms) and its feedback counts no dead
    work."""
    runs = []
    for harness_cls in (LiveHarness, LiveRulesOnSim):
        h = harness_cls()
        h.arrive(2)  # both in service until 4 ms
        h.advance(1.0)
        h.crash()
        h.advance(1.0)
        h.restore()
        h.arrive(1)
        h.advance(20.0)
        runs.append(h)
    live, model = runs
    assert live.responses == [(6.0, 2, False, 0, BASE_MS)]
    assert model.responses == live.responses
    stats = live.stats()
    assert (stats["accepted"], stats["served"], stats["dropped"]) == (3, 1, 2)
    assert stats["accepted"] == stats["served"] + stats["dropped"]
