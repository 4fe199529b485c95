"""C3's per-replica client state stays small.

Every client keeps a scorer slot and a CUBIC rate controller for every
server (§3.1–3.2), so at the paper-default topology of 150 clients × 50
servers this state is the largest thing a run holds.  The batched kernel
creates all of it up front through ``kernel_state``; one send and one
response per pair then fill the EWMAs and the rate trackers.  Times are
constants, so the floats they leave are shared and the figure counts the
state's own layout: 830 traced bytes per pair with an unslotted controller,
an eager history list and a tie-key string per pair; 671 without them.
"""

from __future__ import annotations

import tracemalloc

from repro.core.config import C3Config
from repro.core.feedback import ServerFeedback
from repro.core.scheduler import C3Scheduler

CLIENTS, SERVERS = 150, 50


def _schedulers(config: C3Config, clients: int = CLIENTS) -> list[C3Scheduler]:
    schedulers = []
    for _ in range(clients):
        scheduler = C3Scheduler(config)
        assert scheduler.kernel_state(SERVERS) is not None
        for sid in range(SERVERS):
            assert scheduler.submit("r", (sid,), 1.0).sent
            scheduler.on_response(sid, ServerFeedback(1, 2.0), 3.0, 4.0)
        schedulers.append(scheduler)
    return schedulers


def test_per_pair_state_stays_under_780_traced_bytes():
    config = C3Config().with_clients(CLIENTS)
    _schedulers(config, 1)  # imports and first-use caches out of the way
    tracemalloc.start()
    try:
        schedulers = _schedulers(config)
        per_pair = tracemalloc.get_traced_memory()[0] / (CLIENTS * SERVERS)
    finally:
        tracemalloc.stop()
    assert len(schedulers) == CLIENTS
    assert per_pair <= 780, per_pair
