"""Behavioural checks of the workload-trio draws and the C3 scheduler hot path.

The kernel's speed rests on two component-level optimizations: the
``rng="block"`` regime (block-drawn client/group/coin/gap variates replacing
four scalar Generator calls per arrival, last measured ~5–6x cheaper) and the
dense ``ReplicaScorer`` arrays behind ``C3Scheduler.submit``/``on_response``.
``perfbench/drivers.py`` times all three loops
(``simulator.workload.trio_{v1,block}_us``, ``core.scheduler.pair_us``).
"""

import numpy as np

from repro.core.config import C3Config
from repro.core.feedback import ServerFeedback
from repro.core.scheduler import C3Scheduler
from repro.simulator.workload import BlockDraws

N_DRAWS = 500
N_OPS = 300
#: Overlapping replica groups of 3 over 9 servers (RF-3 style routing).
GROUPS = [tuple(range(start, start + 3)) for start in range(7)]


def test_bench_workload_trio_v1():
    """The scalar per-arrival draws of ``rng="v1"``: client, group, coin, gap."""
    rng = np.random.default_rng(7)
    acc = 0.0
    for _ in range(N_DRAWS):
        rng.integers(12)
        rng.integers(10)
        rng.random()
        acc += float(rng.exponential(0.1))
    assert acc > 0


def test_bench_workload_trio_block():
    """The same four variates served from :class:`BlockDraws` blocks."""
    blocks = BlockDraws(np.random.default_rng(7), 12, None, 10)
    for _ in range(N_DRAWS):
        assert 0 <= blocks.next_client() < 12
        assert 0 <= blocks.next_group() < 10
        assert 0.0 <= blocks.next_coin() < 1.0
        assert blocks.next_gap() > 0.0


def test_bench_c3_submit_on_response():
    # Straight into the scheduler the C3 selector wraps; the high initial rate
    # keeps the loop on scoring + EWMA accounting, not backpressure parking.
    scheduler = C3Scheduler(C3Config(initial_rate=100.0).with_clients(100))
    feedback = [ServerFeedback(queue_size=float(q), service_time=1.0 + 0.25 * q) for q in range(8)]
    now = 0.0
    sent = 0
    for i in range(N_OPS):
        decision = scheduler.submit(i, GROUPS[i % len(GROUPS)], now)
        now += 0.01
        if not decision.backpressured:
            sent += 1
            scheduler.on_response(decision.server_id, feedback[i % 8], 2.0 + (i % 5) * 0.5, now)
    assert sent > 0
