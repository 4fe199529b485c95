"""Micro-benchmarks of the event loop's two lanes: push + fire, µs per event.

``EventLoop`` is the one layer the flat object simulator, ``cluster/`` and
every sweep trial share.  More than 99 % of a run's events are
fire-and-forget message hops (request → server, service finish, response →
client, next arrival); they go through :meth:`EventLoop.post`, whose heap
entry is all there is.  Timers — anything whose handle the caller keeps to
cancel — go through :meth:`EventLoop.schedule` and pay for an ``Event``.
These benchmarks pin the cost of each lane in isolation, so an engine
regression is attributable before it shows up (diluted about five-fold) in
a whole simulation:

* each lane's wall clock is recorded in the perf job's ``BENCH_ci.json``
  artifact like every other benchmark, with its µs/event in ``extra_info``;
* the timer/message ratio is measured interleaved (best-of-N of each,
  alternating, so box-load drift hits both lanes equally), recorded always
  and asserted only in the perf job (``wall_clock_gate``).  Measured on the
  box that first recorded it: about 2x (1.4 against 0.7 µs per event).  It
  is the reason hot call sites are on ``post`` — if it falls towards 1 the
  second lane no longer pays for itself.
"""

import time

from repro.simulator.engine import EventLoop

#: Events per round: enough for a round to run for tens of milliseconds.
N_EVENTS = 200_000

#: Hops in flight at once, i.e. the heap depth the sifts see.  A
#: paper-default flat run holds a few hundred pending entries.
IN_FLIGHT = 256


def _drive(lane: str) -> int:
    """``IN_FLIGHT`` chains of hops, each re-arming itself on ``lane``.

    The callback does what a message hop's does at minimum — take its
    arguments, push its successor — so the time is the engine's: entry
    build, heap push, pop, dispatch.
    """
    loop = EventLoop()
    push = loop.post if lane == "message" else loop.schedule
    budget = [N_EVENTS - IN_FLIGHT]

    def hop(chain: int, delay: float) -> None:
        if budget[0] > 0:
            budget[0] -= 1
            push(delay, hop, chain, delay)

    for chain in range(IN_FLIGHT):
        # Co-prime-ish delays keep the chains interleaving instead of
        # marching in lockstep, so pushes land at varying heap depths.
        push(0.25 + (chain % 7) * 0.01, hop, chain, 0.25 + (chain % 13) * 0.03)
    return loop.run_until_idle()


def _us_per_event(lane: str) -> float:
    start = time.perf_counter()
    fired = _drive(lane)
    return (time.perf_counter() - start) / fired * 1e6


def _bench_lane(benchmark, lane: str) -> None:
    fired = benchmark.pedantic(lambda: _drive(lane), rounds=3, iterations=1)
    assert fired == N_EVENTS
    benchmark.extra_info["lane"] = lane
    benchmark.extra_info["events"] = N_EVENTS
    benchmark.extra_info["us_per_event"] = round(benchmark.stats.stats.min / N_EVENTS * 1e6, 3)


def test_bench_engine_message_lane(benchmark):
    _bench_lane(benchmark, "message")


def test_bench_engine_timer_lane(benchmark):
    _bench_lane(benchmark, "timer")


def test_bench_engine_lane_ratio(benchmark, wall_clock_gate):
    def measure(rounds: int = 5) -> tuple[float, float]:
        best_timer = best_message = float("inf")
        for _ in range(rounds):
            best_timer = min(best_timer, _us_per_event("timer"))
            best_message = min(best_message, _us_per_event("message"))
        return best_timer, best_message

    timer_us, message_us = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["timer_us_per_event"] = round(timer_us, 3)
    benchmark.extra_info["message_us_per_event"] = round(message_us, 3)
    wall_clock_gate("timer_over_message", timer_us / message_us, at_least=1.5)
