"""Background maintenance events: compactions and GC pauses.

The operators the authors interviewed name periodic SSTable compaction and
garbage collection as the dominant sources of latency spikes (§2.1).  Both
are modelled as per-node background processes:

* a **compaction** raises the node's iowait and multiplies its read service
  times for its duration;
* a **GC pause** stalls request service entirely for a short interval (the
  node keeps accepting requests, they just queue up).

Both are faces of :class:`repro.scenarios.processes.PoissonEpisodes` — the
episode loop, its two exponential draws and their order live there; a face
names the pair of node methods an episode calls.  Neither is stopped:
the cluster ends a run by releasing its loop.
"""

from __future__ import annotations

from operator import methodcaller
from typing import Callable, Sequence

import numpy as np

from ..scenarios.processes import PoissonEpisodes
from ..simulator.engine import EventLoop

__all__ = ["CompactionProcess", "GCPauseProcess"]

#: ``on_event(node, started_at_ms, duration_ms)``, called as each episode begins.
EpisodeHook = Callable[[object, float, float], None]


class CompactionProcess(PoissonEpisodes):
    """Poisson-arriving compactions on each node.

    Parameters
    ----------
    loop:
        Event loop.
    nodes:
        Objects exposing ``begin_compaction()`` / ``end_compaction()``.
    mean_interarrival_ms:
        Mean time between compactions on one node.
    mean_duration_ms:
        Mean compaction duration.
    rng:
        Random generator.
    """

    def __init__(
        self,
        loop: EventLoop,
        nodes: Sequence,
        mean_interarrival_ms: float = 20_000.0,
        mean_duration_ms: float = 2_000.0,
        rng: np.random.Generator | None = None,
        on_event: EpisodeHook | None = None,
    ) -> None:
        super().__init__(
            loop, nodes, mean_interarrival_ms, mean_duration_ms, rng, on_event,
            begin=methodcaller("begin_compaction"), end=methodcaller("end_compaction"),
        )

    @property
    def compactions_started(self) -> int:
        """Compactions begun so far, over all nodes."""
        return self.started


class GCPauseProcess(PoissonEpisodes):
    """Poisson-arriving stop-the-world GC pauses on each node.

    During a pause the node's service is stalled: its storage server is
    slowed by a large factor (effectively freezing in-service requests), and
    the pause is short (tens to a couple of hundred milliseconds) but sharp —
    exactly the sub-second fluctuation C3 must absorb.
    """

    def __init__(
        self,
        loop: EventLoop,
        nodes: Sequence,
        mean_interarrival_ms: float = 10_000.0,
        mean_pause_ms: float = 120.0,
        rng: np.random.Generator | None = None,
        on_event: EpisodeHook | None = None,
    ) -> None:
        super().__init__(
            loop, nodes, mean_interarrival_ms, mean_pause_ms, rng, on_event,
            begin=methodcaller("begin_gc_pause"), end=methodcaller("end_gc_pause"),
        )

    @property
    def pauses(self) -> int:
        """Pauses begun so far, over all nodes."""
        return self.started
