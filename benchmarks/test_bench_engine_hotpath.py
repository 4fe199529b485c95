"""Behavioural checks of the event loop's two lanes.

Message hops (over 99 % of a run's events) go through ``EventLoop.post``,
whose heap entry is all there is; timers, whose handle the caller keeps to
cancel, go through ``EventLoop.schedule`` and pay for an ``Event``.  Last
measured on this workload (200 000 events, 256 in flight, 2-core box): about
0.7 µs per message against 1.4 µs per timer.  No ``perfbench`` driver times
the lanes yet (ROADMAP item 1); checked here: only the clock sees the lane.
"""

from repro.simulator.engine import EventLoop

N_EVENTS = 2_000
#: Hops in flight at once, i.e. the heap depth the sifts see.
IN_FLIGHT = 64


def _drive(lane: str) -> tuple[int, list[tuple[float, int]]]:
    """``IN_FLIGHT`` chains of hops re-arming themselves on ``lane``: (fired, fire order)."""
    loop = EventLoop()
    push = loop.post if lane == "message" else loop.schedule
    budget = [N_EVENTS - IN_FLIGHT]
    order: list[tuple[float, int]] = []

    def hop(chain: int, delay: float) -> None:
        order.append((loop.now, chain))
        if budget[0] > 0:
            budget[0] -= 1
            push(delay, hop, chain, delay)

    for chain in range(IN_FLIGHT):
        # Co-prime-ish delays keep the chains interleaving instead of
        # marching in lockstep, so pushes land at varying heap depths.
        push(0.25 + (chain % 7) * 0.01, hop, chain, 0.25 + (chain % 13) * 0.03)
    return loop.run_until_idle(), order


def test_bench_engine_message_lane():
    assert _drive("message")[0] == N_EVENTS


def test_bench_engine_timer_lane():
    assert _drive("timer")[0] == N_EVENTS


def test_bench_engine_lane_ratio():
    # Was the timer/message µs ratio; under it: both lanes fire the same hops in the same order
    # (twin of tests/simulator/test_engine_properties.py::test_mixed_heap_equals_the_all_timer_heap).
    assert _drive("timer")[1] == _drive("message")[1]
