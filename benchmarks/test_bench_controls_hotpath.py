"""Behavioural checks of the control-plane hot paths.

The failure detector hears a heartbeat on every response and is queried on
every submit, the hedging policy records every read latency and gives a
threshold for every dispatched read, the CUBIC controller updates on every
response.  Each test drives one of those loops as a client does;
``perfbench/drivers.py`` times them (``controls.{phi,hedge,cubic}.pair_us``).
"""

from repro.controls import ControlSpec

#: Enough for the CUBIC controller to leave its first 50 ms of warm-up.
N_OPS = 3_000


def test_bench_phi_detector_heartbeat_and_query():
    detector = ControlSpec.parse("phi").build()
    now = 0.0
    alive = 0
    for i in range(N_OPS):
        now += 0.05
        detector.heartbeat(i % 9, now)
        alive += detector.is_alive(i % 9, now)
    assert alive == N_OPS  # steady heartbeats: nobody is ever suspected


def test_bench_hedging_record_and_threshold():
    # One threshold query per recorded latency — the worst-case ratio a
    # hedging client produces (every read both records and arms a timer).
    ops = N_OPS // 10  # np.percentile over the window dominates
    policy = ControlSpec.parse("hedge:min_samples=10,history=200").build()
    armed = 0
    for i in range(ops):
        policy.record(1.0 + (i % 7) * 0.5)
        armed += policy.threshold_ms() is not None
    assert armed == ops - 9  # everything after warm-up arms


def test_bench_cubic_controller_update_loop():
    controller = ControlSpec.parse("cubic:initial_rate=50,rate_delta_ms=5").build()
    now = 0.0
    for _ in range(N_OPS):
        now += 0.02
        controller.try_acquire(now)
        controller.on_response(now)
    assert controller.increases + controller.decreases > 0
