"""Micro-benchmarks of the selector ``submit``/``on_response`` hot paths.

Unlike the experiment benchmarks (whole simulated figures), these measure
the per-request cost of the selector API itself — the innermost loop of
every simulation — for the paper's strategy (C3) and the two cheapest
baselines (LOR, P2C).  They are recorded in the perf job's ``BENCH_ci.json``
artifact with the rest of the suite, so a slowdown in the scoring or
accounting path is visible even if no figure benchmark happens to notice.
"""

import numpy as np

from repro.core.config import C3Config
from repro.core.feedback import ServerFeedback
from repro.strategies import make_selector

#: submit/on_response pairs per round — enough for a round to run for tens
#: of milliseconds on every strategy measured.
N_OPS = 30_000

#: Overlapping replica groups of 3 over 9 servers (RF-3 style routing).
GROUPS = [tuple(range(start, start + 3)) for start in range(7)]


def _drive(selector, n_ops=N_OPS):
    """Run ``n_ops`` submit/response cycles through one selector."""
    feedback = [
        ServerFeedback(queue_size=float(q), service_time=1.0 + 0.25 * q) for q in range(8)
    ]
    now = 0.0
    sent = 0
    for i in range(n_ops):
        decision = selector.submit(i, GROUPS[i % len(GROUPS)], now)
        now += 0.01
        if decision.sent:
            sent += 1
            selector.on_response(decision.server_id, feedback[i % 8], 2.0 + (i % 5) * 0.5, now)
    return sent


def _bench_selector(benchmark, name, **kwargs):
    def run():
        selector = make_selector(name, rng=np.random.default_rng(7), **kwargs)
        return _drive(selector)

    sent = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["strategy"] = name
    benchmark.extra_info["ops"] = N_OPS
    benchmark.extra_info["sent"] = sent
    assert sent > 0


def test_bench_selector_hotpath_c3(benchmark):
    # High initial rate so the loop measures scoring + accounting, not
    # backpressure parking (the rate controller still runs every window).
    _bench_selector(benchmark, "C3", config=C3Config(initial_rate=100.0).with_clients(100))


def test_bench_selector_hotpath_lor(benchmark):
    _bench_selector(benchmark, "LOR")


def test_bench_selector_hotpath_p2c(benchmark):
    _bench_selector(benchmark, "P2C")
