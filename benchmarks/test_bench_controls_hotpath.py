"""Micro-benchmarks of the control-plane hot paths.

The controls run inside the simulator's innermost loops: the failure
detector is consulted on every submit/dispatch and hears a heartbeat on
every response, the hedging policy records every read latency and is asked
for a threshold on every dispatched read, and the CUBIC controller updates
on every response.  These benchmarks measure those per-event costs in
isolation; like the rest of the suite they are recorded in the perf job's
``BENCH_ci.json`` artifact (no committed baseline is compared against).
"""

from repro.controls import ControlSpec

#: Events per round — sized so every round runs for tens of milliseconds.
N_OPS = 120_000

SERVERS = tuple(range(9))


def test_bench_phi_detector_heartbeat_and_query(benchmark):
    def run():
        detector = ControlSpec.parse("phi").build()
        now = 0.0
        alive = 0
        for i in range(N_OPS):
            now += 0.05
            sid = SERVERS[i % len(SERVERS)]
            detector.heartbeat(sid, now)
            if detector.is_alive(sid, now):
                alive += 1
        return alive

    alive = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["ops"] = N_OPS
    assert alive == N_OPS  # steady heartbeats: nobody is ever suspected


def test_bench_hedging_record_and_threshold(benchmark):
    # One threshold query per recorded latency — the worst-case ratio a
    # hedging client produces (every read both records and arms a timer).
    ops = N_OPS // 20  # np.percentile over the window dominates

    def run():
        policy = ControlSpec.parse("hedge:min_samples=10,history=200").build()
        armed = 0
        for i in range(ops):
            policy.record(1.0 + (i % 7) * 0.5)
            if policy.threshold_ms() is not None:
                armed += 1
        return armed

    armed = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["ops"] = ops
    assert armed == ops - 9  # everything after warm-up arms


def test_bench_cubic_controller_update_loop(benchmark):
    def run():
        controller = ControlSpec.parse("cubic:initial_rate=50,rate_delta_ms=5").build()
        now = 0.0
        for _ in range(N_OPS):
            now += 0.02
            controller.try_acquire(now)
            controller.on_response(now)
        return controller.increases + controller.decreases

    adjustments = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["ops"] = N_OPS
    assert adjustments > 0
