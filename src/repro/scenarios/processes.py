"""The two perturbation loops shared beyond the scenario components.

* :class:`BimodalFluctuation` — the paper's §6 fluctuation model; the
  ``bimodal`` scenario's component and the simulator's legacy
  ``fluctuation_enabled`` path both run it.
* :class:`PoissonEpisodes` — Poisson-arriving episodes on each target; the
  ``GCPauses`` component and the cluster's compaction and GC-pause episodes
  (:class:`repro.cluster.CassandraCluster`) run it.

Every other perturbation is a component that schedules its own edges
(:mod:`repro.scenarios.components`).

Both loops support ``stop()``: it cancels the edges they still have pending
and restores the state they perturbed.  This closes a reuse bug: a
perturbation event that fires exactly at the simulation horizon —
``run(until=h)`` fires events *at* ``h`` — leaves servers perturbed, and an
:class:`EventLoop` that is then ``clear()``-ed and reused would run its next
scenario against degraded servers.  ``stop()`` is the symmetric teardown that
makes reuse safe; the fluctuation regression suite pins this behavior.  Each
loop keeps the handle of every timer it has pending, so no callback needs to
ask whether it was stopped: a cancelled :class:`Event` never fires.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only; avoids an import cycle
    from ..simulator.engine import Event, EventLoop
    from ..simulator.server import SimServer

__all__ = ["BimodalFluctuation", "PoissonEpisodes", "check_bimodal", "check_episodes"]


def check_bimodal(interval_ms: float | None, rate_multiplier: float | None, fast_probability: float) -> None:
    """The fluctuation knobs' constraints; ``None`` is a value the config's fluctuation fields give."""
    if interval_ms is not None and interval_ms <= 0:
        raise ValueError("interval_ms must be positive")
    if rate_multiplier is not None and rate_multiplier <= 0:
        raise ValueError("rate_multiplier must be positive")
    if not 0.0 <= fast_probability <= 1.0:
        raise ValueError("fast_probability must be in [0, 1]")


def check_episodes(mean_interarrival_ms: float, mean_duration_ms: float) -> None:
    """:class:`PoissonEpisodes`' constraint on its two means."""
    if mean_interarrival_ms <= 0 or mean_duration_ms <= 0:
        raise ValueError("mean durations must be positive")


class BimodalFluctuation:
    """Every ``interval_ms``, each server independently picks one of two modes.

    Reproduces the paper's §6 fluctuation model: servers flip between their
    nominal service rate μ and ``D × μ`` with probability
    ``fast_probability`` per flip.

    Parameters
    ----------
    loop:
        Event loop to schedule the periodic mode switches on.
    servers:
        Servers whose speed is driven by this process.
    interval_ms:
        The fluctuation interval ``T``.
    rate_multiplier:
        The ``D`` parameter: the alternative mode's service *rate* is
        ``D × μ`` (so its service time is ``1/D`` of nominal).  The paper uses
        ``D = 3``.
    fast_probability:
        Probability of picking the ``D×`` mode at each flip (0.5 in the paper,
        i.e. uniform).
    rng:
        Random generator used for the independent per-server coin flips.
    """

    def __init__(
        self,
        loop: "EventLoop",
        servers: Sequence["SimServer"],
        interval_ms: float = 100.0,
        rate_multiplier: float = 3.0,
        fast_probability: float = 0.5,
        rng: np.random.Generator | None = None,
    ) -> None:
        check_bimodal(interval_ms, rate_multiplier, fast_probability)
        self.loop = loop
        self.servers = list(servers)
        self.interval_ms = float(interval_ms)
        self.rate_multiplier = float(rate_multiplier)
        self.fast_probability = float(fast_probability)
        self.rng = rng or np.random.default_rng()
        self.flips = 0
        self._started = False
        self._next_flip: "Event | None" = None

    def start(self) -> None:
        """Apply an initial mode to every server and begin flipping."""
        if self._started:
            return
        self._started = True
        self._flip()

    def stop(self) -> None:
        """Cancel the pending flip and restore every server to nominal speed."""
        if self._next_flip is not None:
            self._next_flip.cancel()
            self._next_flip = None
        for server in self.servers:
            server.set_service_rate_multiplier(1.0, source=self)

    def _flip(self) -> None:
        for server in self.servers:
            if self.rng.random() < self.fast_probability:
                server.set_service_rate_multiplier(self.rate_multiplier, source=self)
            else:
                server.set_service_rate_multiplier(1.0, source=self)
            self.flips += 1
        self._next_flip = self.loop.schedule(self.interval_ms, self._flip)


class PoissonEpisodes:
    """Poisson-arriving episodes on each target: begin, last a while, end, repeat.

    The one episode loop behind the ``GCPauses`` component and the cluster's
    compactions and GC pauses, which differ only in the ``begin(target)`` /
    ``end(target)`` actions they hand in.  Two exponential draws per episode
    on the shared ``rng``, in this order: the gap before it (drawn when the
    target's previous episode ends) and its duration (drawn as it begins).
    ``started`` counts the episodes begun so far, over all targets.
    """

    def __init__(self, loop, targets, mean_interarrival_ms, mean_duration_ms, rng, begin, end):
        check_episodes(mean_interarrival_ms, mean_duration_ms)
        self.loop = loop
        self.targets = list(targets)
        self.mean_interarrival_ms = float(mean_interarrival_ms)
        self.mean_duration_ms = float(mean_duration_ms)
        self.rng = rng or np.random.default_rng()
        self._begin_on = begin
        self._end_on = end
        self.started = 0
        # One edge is pending per target at any time, so this holds every live timer.
        self._pending: dict[Any, "Event"] = {}

    def start(self) -> None:
        """Schedule the first episode on every target."""
        for target in self.targets:
            self._schedule_next(target)

    def stop(self) -> None:
        """Cancel every pending edge and end each target's episode (``end`` must be idempotent)."""
        for event in self._pending.values():
            event.cancel()
        self._pending.clear()
        for target in self.targets:
            self._end_on(target)

    def _schedule_next(self, target: Any) -> None:
        gap = float(self.rng.exponential(self.mean_interarrival_ms))
        self._pending[target] = self.loop.schedule(gap, self._begin, target)

    def _begin(self, target: Any) -> None:
        duration = float(self.rng.exponential(self.mean_duration_ms))
        self._begin_on(target)
        self.started += 1
        self._pending[target] = self.loop.schedule(duration, self._end, target)

    def _end(self, target: Any) -> None:
        self._end_on(target)
        self._schedule_next(target)
