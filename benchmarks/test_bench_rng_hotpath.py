"""Micro-benchmarks of the workload-trio draws and the C3 scheduler hot path.

PR 8's kernel speedups rest on two component-level optimizations: the
``rng="block"`` regime (block-drawn client/group/coin/gap variates replacing
four scalar Generator calls per arrival) and the dense
:class:`~repro.core.scoring.ReplicaScorer` arrays behind
``C3Scheduler.submit``/``on_response``.  These benchmarks pin each component
in isolation so a regression is attributable before it shows up (diluted) in
the whole-kernel benchmarks, and so the block regime's per-draw advantage
(measured ~5–6x over the scalar trio) is itself recorded in the perf job's
``BENCH_ci.json`` artifact.
"""

import numpy as np

from repro.core.config import C3Config
from repro.core.feedback import ServerFeedback
from repro.core.scheduler import C3Scheduler
from repro.simulator.workload import BlockDraws

#: Arrivals simulated per round — enough for a round to run for tens of
#: milliseconds even on the fast block path.
N_DRAWS = 200_000

#: submit/on_response pairs per round for the scheduler-direct benchmark.
N_OPS = 30_000

#: Overlapping replica groups of 3 over 9 servers (RF-3 style routing).
GROUPS = [tuple(range(start, start + 3)) for start in range(7)]


def _drive_trio_v1(n: int) -> float:
    """The scalar per-arrival draws of ``rng="v1"``: client, group, coin, gap."""
    rng = np.random.default_rng(7)
    acc = 0.0
    for _ in range(n):
        rng.integers(12)
        rng.integers(10)
        rng.random()
        acc += float(rng.exponential(0.1))
    return acc


def _drive_trio_block(n: int) -> float:
    """The same four variates served from :class:`BlockDraws` blocks."""
    blocks = BlockDraws(np.random.default_rng(7), 12, None, 10)
    next_client, next_group = blocks.next_client, blocks.next_group
    next_coin, next_gap = blocks.next_coin, blocks.next_gap
    acc = 0.0
    for _ in range(n):
        next_client()
        next_group()
        next_coin()
        acc += next_gap() * 0.1
    return acc


def test_bench_workload_trio_v1(benchmark):
    acc = benchmark.pedantic(lambda: _drive_trio_v1(N_DRAWS), rounds=3, iterations=1)
    benchmark.extra_info["rng"] = "v1"
    benchmark.extra_info["draws"] = N_DRAWS
    assert acc > 0


def test_bench_workload_trio_block(benchmark):
    acc = benchmark.pedantic(lambda: _drive_trio_block(N_DRAWS), rounds=3, iterations=1)
    benchmark.extra_info["rng"] = "block"
    benchmark.extra_info["draws"] = N_DRAWS
    assert acc > 0


def _drive_scheduler(n_ops: int) -> int:
    """submit/on_response cycles straight into the C3 scheduler.

    This is the path the object engine's C3 selector delegates to and the
    batched kernel inlines (against the scorer's dense arrays), measured
    without the selector-wrapper overhead the selector-hotpath benchmark
    includes.  The high initial rate keeps the loop on scoring + EWMA
    accounting rather than backpressure parking.
    """
    scheduler = C3Scheduler(C3Config(initial_rate=100.0).with_clients(100))
    feedback = [
        ServerFeedback(queue_size=float(q), service_time=1.0 + 0.25 * q) for q in range(8)
    ]
    now = 0.0
    sent = 0
    for i in range(n_ops):
        decision = scheduler.submit(i, GROUPS[i % len(GROUPS)], now)
        now += 0.01
        if not decision.backpressured:
            sent += 1
            scheduler.on_response(decision.server_id, feedback[i % 8], 2.0 + (i % 5) * 0.5, now)
    return sent


def test_bench_c3_submit_on_response(benchmark):
    sent = benchmark.pedantic(lambda: _drive_scheduler(N_OPS), rounds=3, iterations=1)
    benchmark.extra_info["ops"] = N_OPS
    benchmark.extra_info["sent"] = sent
    assert sent > 0
