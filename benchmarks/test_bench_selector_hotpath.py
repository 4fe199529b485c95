"""Behavioural checks of the selector ``submit``/``on_response`` hot paths.

The per-request selector API is the innermost loop of every simulation;
these drive it for the paper's strategy (C3) and the two cheapest baselines
(LOR, P2C).  ``perfbench/drivers.py`` times the same loop
(``strategies.{c3,lor,ds}.pair_us``).
"""

import numpy as np

from repro.core.config import C3Config
from repro.core.feedback import ServerFeedback
from repro.strategies import make_selector

N_OPS = 300
#: Overlapping replica groups of 3 over 9 servers (RF-3 style routing).
GROUPS = [tuple(range(start, start + 3)) for start in range(7)]


def _sends(name, **kwargs):
    """A test: ``N_OPS`` submit/response cycles through one selector send requests."""

    def test() -> None:
        selector = make_selector(name, rng=np.random.default_rng(7), **kwargs)
        feedback = [ServerFeedback(queue_size=float(q), service_time=1.0 + 0.25 * q) for q in range(8)]
        now = 0.0
        sent = 0
        for i in range(N_OPS):
            decision = selector.submit(i, GROUPS[i % len(GROUPS)], now)
            now += 0.01
            if decision.sent:
                sent += 1
                selector.on_response(decision.server_id, feedback[i % 8], 2.0 + (i % 5) * 0.5, now)
        assert sent > 0

    return test


# High initial rate so the C3 loop exercises scoring + accounting, not
# backpressure parking (the rate controller still runs every window).
test_bench_selector_hotpath_c3 = _sends("C3", config=C3Config(initial_rate=100.0).with_clients(100))
test_bench_selector_hotpath_lor = _sends("LOR")
test_bench_selector_hotpath_p2c = _sends("P2C")
