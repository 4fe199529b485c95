"""Background maintenance events: compactions and GC pauses.

The operators the authors interviewed name periodic SSTable compaction and
garbage collection as the dominant sources of latency spikes (§2.1).  Both
are modelled as per-node background processes:

* a **compaction** raises the node's iowait and multiplies its read service
  times for its duration;
* a **GC pause** stalls request service entirely for a short interval (the
  node keeps accepting requests, they just queue up).
"""

from __future__ import annotations

from operator import methodcaller
from typing import Callable, Sequence

import numpy as np

from ..simulator.engine import EventLoop

__all__ = ["CompactionProcess", "GCPauseProcess"]

#: ``on_event(node, started_at_ms, duration_ms)``, called as each episode begins.
EpisodeHook = Callable[[object, float, float], None]


class _NodeEpisodes:
    """Poisson-arriving episodes on each node: begin, last a while, end, repeat.

    The one implementation behind :class:`CompactionProcess` and
    :class:`GCPauseProcess`, which differ only in the pair of node methods
    an episode calls: ``node.begin_<episode>()`` and ``node.end_<episode>()``.
    Two exponential draws per episode on the shared ``rng``, in this order:
    the gap before it (drawn when the node's previous episode ends) and its
    duration (drawn as it begins).
    """

    def __init__(self, loop, nodes, mean_interarrival_ms, mean_duration_ms, rng, on_event, episode):
        if mean_interarrival_ms <= 0 or mean_duration_ms <= 0:
            raise ValueError("durations must be positive")
        self.loop = loop
        self.nodes = list(nodes)
        self.mean_interarrival_ms = float(mean_interarrival_ms)
        self.mean_duration_ms = float(mean_duration_ms)
        self.rng = rng or np.random.default_rng()
        self.on_event = on_event
        self._begin_on = methodcaller(f"begin_{episode}")
        self._end_on = methodcaller(f"end_{episode}")
        self.started = 0

    def start(self) -> None:
        """Schedule the first episode on every node."""
        for node in self.nodes:
            self._schedule_next(node)

    def _schedule_next(self, node) -> None:
        gap = float(self.rng.exponential(self.mean_interarrival_ms))
        self.loop.schedule(gap, self._begin, node)

    def _begin(self, node) -> None:
        duration = float(self.rng.exponential(self.mean_duration_ms))
        self._begin_on(node)
        self.started += 1
        if self.on_event is not None:
            self.on_event(node, self.loop.now, duration)
        self.loop.schedule(duration, self._end, node)

    def _end(self, node) -> None:
        self._end_on(node)
        self._schedule_next(node)


class CompactionProcess(_NodeEpisodes):
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
        super().__init__(loop, nodes, mean_interarrival_ms, mean_duration_ms, rng, on_event, "compaction")

    @property
    def compactions_started(self) -> int:
        """Compactions begun so far, over all nodes."""
        return self.started


class GCPauseProcess(_NodeEpisodes):
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
        super().__init__(loop, nodes, mean_interarrival_ms, mean_pause_ms, rng, on_event, "gc_pause")

    @property
    def pauses(self) -> int:
        """Pauses begun so far, over all nodes."""
        return self.started
