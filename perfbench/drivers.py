"""Isolated drivers: one layer's hot call in a tight loop, microseconds per op.

They run only under ``--trace 1``.  A driver explains what a span costs when
its layer is inlined away (the batched kernel inlines selector, scheduler
and client), and it moves the same end-to-end metric as the layer it
isolates.  Shapes follow the pytest-benchmark hot-path drivers of the repo
(selector, rng and controls), with fewer operations per round.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: Overlapping replica groups of 3 over 9 servers (RF-3 style routing).
GROUPS = [tuple(range(start, start + 3)) for start in range(7)]

#: Rounds per driver; the median round is reported.
ROUNDS = 3


def _feedback():
    from repro.core.feedback import ServerFeedback

    return [ServerFeedback(queue_size=float(q), service_time=1.0 + 0.25 * q) for q in range(8)]


def _pairs(target):
    """submit/on_response pairs into a selector or the C3 scheduler."""
    feedback = _feedback()

    def loop(n):
        now = 0.0
        for i in range(n):
            decision = target.submit(i, GROUPS[i % 7], now)
            now += 0.01
            if decision.server_id is not None:
                target.on_response(decision.server_id, feedback[i % 8], 2.0 + (i % 5) * 0.5, now)

    return loop


def _c3_config():
    from repro.core.config import C3Config

    # A high initial rate keeps C3 on scoring + accounting, not parking.
    return C3Config(initial_rate=100.0).with_clients(100)


def _selector(name):
    def setup():
        from repro.strategies import make_selector

        return _pairs(make_selector(name, rng=np.random.default_rng(7), config=_c3_config()))

    return setup


def _scheduler():
    from repro.core.scheduler import C3Scheduler

    return _pairs(C3Scheduler(_c3_config()))


def _scores_array():
    from repro.core.scoring import ReplicaScorer

    scorer = ReplicaScorer(_c3_config())
    for i, feedback in enumerate(_feedback()):
        scorer.on_send(i, 0.0)
        scorer.on_response(i, feedback, 2.0, 1.0)

    def loop(n):
        for i in range(n):
            scorer.scores_array(GROUPS[i % 7])

    return loop


def _trio_v1():
    rng = np.random.default_rng(7)

    def loop(n):
        for _ in range(n):
            rng.integers(12)
            rng.integers(10)
            rng.random()
            rng.exponential(0.1)

    return loop


def _trio_block():
    from repro.simulator.workload import BlockDraws

    blocks = BlockDraws(np.random.default_rng(7), 12, None, 10)

    def loop(n):
        for _ in range(n):
            blocks.next_client()
            blocks.next_group()
            blocks.next_coin()
            blocks.next_gap()

    return loop


def _zipf():
    from repro.workloads.zipf import ZipfianGenerator

    generator = ZipfianGenerator(10_000, rng=np.random.default_rng(7))

    def loop(n):
        for _ in range(n):
            generator.next_key()

    return loop


def _control(spec):
    from repro.controls import ControlSpec

    return ControlSpec.parse(spec).build()


def _phi():
    detector = _control("phi")

    def loop(n):
        now = 0.0
        for i in range(n):
            now += 0.05
            detector.heartbeat(i % 9, now)
            detector.is_alive(i % 9, now)

    return loop


def _hedge():
    policy = _control("hedge:min_samples=10,history=200")

    def loop(n):
        for i in range(n):
            policy.record(1.0 + (i % 7) * 0.5)
            policy.threshold_ms()

    return loop


def _cubic():
    controller = _control("cubic:initial_rate=50,rate_delta_ms=5")

    def loop(n):
        now = 0.0
        for _ in range(n):
            now += 0.02
            controller.try_acquire(now)
            controller.on_response(now)

    return loop


def _histogram(filled=0):
    from repro.analysis.histogram import LatencyHistogram

    histogram = LatencyHistogram(0.01)
    histogram.record_many(np.random.default_rng(7).exponential(8.0, filled))
    return histogram


def _hist_record():
    histogram = _histogram()

    def loop(n):
        for i in range(n):
            histogram.record(1.0 + (i % 997) * 0.37)

    return loop


def _hist_merge():
    total, part = _histogram(), _histogram(20_000)

    def loop(n):
        for _ in range(n):
            total.merge(part)

    return loop


def _hist_quantile():
    histogram = _histogram(20_000)

    def loop(n):
        for _ in range(n):
            histogram.quantile(0.99)

    return loop


def _trial():
    from repro.runner import SweepSpec
    from repro.simulator import SimulationConfig

    return SweepSpec(base=SimulationConfig(num_servers=9, num_clients=8, num_requests=100)).trials()[0]


def trial_job(trial) -> dict:
    """The wire payload ``execute_trial`` takes for ``trial``."""
    from repro.runner import config_to_payload

    return {"index": 0, "key": trial.key, "params": {}, "seed": trial.seed, "config": config_to_payload(trial.config)}


def _spec_key():
    trial = _trial()

    def loop(n):
        for _ in range(n):
            trial.key

    return loop


def _payload_roundtrip():
    from repro.runner import config_to_payload, payload_to_config

    config = _trial().config

    def loop(n):
        for _ in range(n):
            payload_to_config(config_to_payload(config))

    return loop


def _cache(workdir, read):
    def setup():
        from repro.runner import TrialCache, execute_trial

        trial = _trial()
        payload = execute_trial(trial_job(trial))["trial"]
        cache = TrialCache(workdir / "driver-cache")
        cache.put(trial.key, payload)

        def loop(n):
            for _ in range(n):
                if read:
                    cache.get(trial.key)
                else:
                    cache.put(trial.key, payload)

        return loop

    return setup


_MESSAGE = {"t": "res", "id": 123456, "server_id": 2, "queue_size": 3, "service_time_ms": 4.25, "rejected": False}


def _encode():
    from repro.live.protocol import encode_message

    def loop(n):
        for _ in range(n):
            encode_message(_MESSAGE)

    return loop


def _decode():
    # read_message needs a stream; its decoding step is this expression.
    import json

    from repro.live.protocol import encode_message

    body = encode_message(_MESSAGE)[4:]

    def loop(n):
        for _ in range(n):
            json.loads(body.decode("utf-8"))

    return loop


def drivers(workdir):
    """metric name -> (set-up returning the timed loop, operations per round)."""
    return {
        "strategies.c3.pair_us": (_selector("C3"), 4_000),
        "strategies.lor.pair_us": (_selector("LOR"), 12_000),
        "strategies.ds.pair_us": (_selector("DS"), 6_000),
        "core.scheduler.pair_us": (_scheduler, 4_000),
        "core.scorer.scores_array_us": (_scores_array, 12_000),
        "simulator.workload.trio_v1_us": (_trio_v1, 12_000),
        "simulator.workload.trio_block_us": (_trio_block, 40_000),
        "workloads.zipf.draw_us": (_zipf, 20_000),
        "controls.phi.pair_us": (_phi, 20_000),
        "controls.hedge.pair_us": (_hedge, 1_500),
        "controls.cubic.pair_us": (_cubic, 20_000),
        "analysis.histogram.record_us": (_hist_record, 40_000),
        "analysis.histogram.merge_us": (_hist_merge, 100),
        "analysis.histogram.quantile_us": (_hist_quantile, 200),
        "runner.spec.key_us": (_spec_key, 1_000),
        "runner.spec.payload_roundtrip_us": (_payload_roundtrip, 400),
        "runner.cache.put_us": (_cache(workdir, read=False), 150),
        "runner.cache.get_us": (_cache(workdir, read=True), 500),
        "live.protocol.encode_us": (_encode, 10_000),
        "live.protocol.decode_us": (_decode, 10_000),
    }


def run_drivers(workdir, scale: float = 1.0) -> dict[str, float]:
    """Microseconds per operation of every driver, median of ``ROUNDS``.

    Each round builds fresh state; only the loop is timed.
    """
    results = {}
    for name, (setup, ops) in drivers(workdir).items():
        n = max(10, int(ops * scale))
        rounds = []
        for _ in range(ROUNDS):
            loop = setup()
            started = perf_counter()
            loop(n)
            rounds.append((perf_counter() - started) / n * 1e6)
        results[name] = statistics.median(rounds)
    return results
