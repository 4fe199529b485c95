"""Imperative perturbation processes — the primitives scenarios are built from.

Each process attaches to the event loop and manipulates simulator objects
(server speed, server liveness, arrival rate) over time.  They are the
engine-level building blocks: the declarative layer
(:mod:`repro.scenarios.components`) instantiates them, and
:mod:`repro.simulator` exports the three paper-era ones
(``BimodalFluctuation``, ``LatencyInflation``, ``TransientSlowdowns``).

Every process a scenario starts supports ``stop()``: it cancels any events
the process still has scheduled and restores the state it perturbed
(service-rate multipliers, crashed servers, arrival rates).  This closes a
reuse bug: a perturbation event that fires exactly at the simulation horizon
— ``run(until=h)`` fires events *at* ``h`` — leaves servers perturbed, and an
:class:`EventLoop` that is then ``clear()``-ed and reused would run its next
scenario against degraded servers.  ``stop()`` is the symmetric teardown that
makes reuse safe; the fluctuation regression suite pins this behavior.  Each
process keeps the handle of every timer it has pending and ``stop()`` cancels
them all, so no callback needs to ask whether it was stopped: a cancelled
:class:`Event` never fires.
"""

from __future__ import annotations

from operator import methodcaller
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only; avoids an import cycle
    from ..simulator.engine import Event, EventLoop
    from ..simulator.server import SimServer
    from ..simulator.workload import PoissonArrivalProcess

__all__ = [
    "ArrivalRateSchedule",
    "BimodalFluctuation",
    "CrashSchedule",
    "LatencyInflation",
    "PoissonEpisodes",
    "TransientSlowdowns",
]


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
        if interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        if rate_multiplier <= 0:
            raise ValueError("rate_multiplier must be positive")
        if not 0.0 <= fast_probability <= 1.0:
            raise ValueError("fast_probability must be in [0, 1]")
        self.loop = loop
        self.servers = list(servers)
        self.interval_ms = float(interval_ms)
        self.rate_multiplier = float(rate_multiplier)
        self.fast_probability = float(fast_probability)
        self.rng = rng or np.random.default_rng()
        self.flips = 0
        self._started = False
        self._next_flip: "Event | None" = None

    @property
    def mean_service_rate_factor(self) -> float:
        """The average rate multiplier ``(1 + D)/2`` used for sizing load."""
        return (1.0 + self.rate_multiplier) / 2.0

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


class LatencyInflation:
    """Deterministic, scripted slow-downs of a specific server.

    Used to reproduce the Figure 13 experiment where a tracked node's
    latencies are artificially inflated three times during a run.

    Parameters
    ----------
    loop / server:
        Event loop and the server to manipulate.
    episodes:
        Iterable of ``(start_ms, end_ms, slowdown_factor)`` tuples; during
        each episode the server's service time is multiplied by the factor.
        An ``end_ms`` of ``None`` makes the slowdown permanent (a "slow
        node" rather than an episode).
    """

    def __init__(
        self,
        loop: "EventLoop",
        server: "SimServer",
        episodes: Iterable[tuple[float, float | None, float]],
    ) -> None:
        self.loop = loop
        self.server = server
        self.episodes = sorted(episodes, key=lambda e: (e[0], e[1] if e[1] is not None else float("inf")))
        for start, end, factor in self.episodes:
            if end is not None and end <= start:
                raise ValueError(f"episode end must follow start: {(start, end)}")
            if factor <= 0:
                raise ValueError("slowdown factor must be positive")
        self.active_episodes = 0
        self._events: list["Event"] = []

    def start(self) -> None:
        """Schedule all episodes."""
        for start, end, factor in self.episodes:
            self._events.append(self.loop.schedule_at(start, self._begin, factor))
            if end is not None:
                self._events.append(self.loop.schedule_at(end, self._end))

    def stop(self) -> None:
        """Cancel pending episode edges and restore the nominal service time."""
        for event in self._events:
            event.cancel()
        self._events.clear()
        self.active_episodes = 0
        self.server.set_service_time_multiplier(1.0, source=self)

    def _begin(self, factor: float) -> None:
        self.active_episodes += 1
        self.server.set_service_time_multiplier(factor, source=self)

    def _end(self) -> None:
        self.active_episodes = max(0, self.active_episodes - 1)
        if self.active_episodes == 0:
            self.server.set_service_time_multiplier(1.0, source=self)


class PoissonEpisodes:
    """Poisson-arriving episodes on each target: begin, last a while, end, repeat.

    The one episode loop behind :class:`TransientSlowdowns` and the cluster's
    :class:`~repro.cluster.events.CompactionProcess` and
    :class:`~repro.cluster.events.GCPauseProcess`, which differ only in the
    ``begin(target)`` / ``end(target)`` actions they hand in.  Two exponential
    draws per episode on the shared ``rng``, in this order: the gap before it
    (drawn when the target's previous episode ends) and its duration (drawn
    as it begins).  ``on_event(target, started_at_ms, duration_ms)`` is called
    as each episode begins.
    """

    def __init__(self, loop, targets, mean_interarrival_ms, mean_duration_ms, rng, on_event, begin, end):
        if mean_interarrival_ms <= 0 or mean_duration_ms <= 0:
            raise ValueError("mean durations must be positive")
        self.loop = loop
        self.targets = list(targets)
        self.mean_interarrival_ms = float(mean_interarrival_ms)
        self.mean_duration_ms = float(mean_duration_ms)
        self.rng = rng or np.random.default_rng()
        self.on_event = on_event
        self._begin_on = begin
        self._end_on = end
        self.started = 0

    def start(self) -> None:
        """Schedule the first episode on every target."""
        for target in self.targets:
            self._schedule_next(target)

    def _arm(self, delay: float, edge: Callable[[Any], None], target: Any) -> None:
        """Schedule one episode edge; a face that can stop keeps the handle."""
        self.loop.schedule(delay, edge, target)

    def _schedule_next(self, target: Any) -> None:
        gap = float(self.rng.exponential(self.mean_interarrival_ms))
        self._arm(gap, self._begin, target)

    def _begin(self, target: Any) -> None:
        duration = float(self.rng.exponential(self.mean_duration_ms))
        self._begin_on(target)
        self.started += 1
        if self.on_event is not None:
            self.on_event(target, self.loop.now, duration)
        self._arm(duration, self._end, target)

    def _end(self, target: Any) -> None:
        self._end_on(target)
        self._schedule_next(target)


class TransientSlowdowns(PoissonEpisodes):
    """Poisson-arriving transient slowdowns (GC-pause-like events).

    Each affected server is slowed by ``slowdown_factor`` for an
    exponentially distributed duration.  Events arrive per server as a
    Poisson process with the given mean inter-arrival time.
    """

    def __init__(
        self,
        loop: "EventLoop",
        servers: Sequence["SimServer"],
        mean_interarrival_ms: float = 5000.0,
        mean_duration_ms: float = 200.0,
        slowdown_factor: float = 4.0,
        rng: np.random.Generator | None = None,
        on_event: Callable[["SimServer", float, float], None] | None = None,
    ) -> None:
        if slowdown_factor <= 0:
            raise ValueError("slowdown_factor must be positive")
        self.slowdown_factor = float(slowdown_factor)
        # The multiplier is keyed by a token, not by ``self``: the actions live
        # on the process, and one that held the process would be a cycle.
        source = object()
        super().__init__(
            loop, servers, mean_interarrival_ms, mean_duration_ms, rng, on_event,
            begin=methodcaller("set_service_time_multiplier", self.slowdown_factor, source=source),
            end=methodcaller("set_service_time_multiplier", 1.0, source=source),
        )
        self._pending: dict[object, "Event"] = {}

    @property
    def events(self) -> int:
        """Slowdowns begun so far, over all servers."""
        return self.started

    def stop(self) -> None:
        """Cancel pending pause edges and restore every server's speed."""
        for event in self._pending.values():
            event.cancel()
        self._pending.clear()
        for server in self.targets:
            self._end_on(server)

    def _arm(self, delay: float, edge: Callable[["SimServer"], None], server: "SimServer") -> None:
        # One edge is pending per server at any time, so this holds every live timer.
        self._pending[server.server_id] = self.loop.schedule(delay, edge, server)


class CrashSchedule:
    """Timed crash/restart windows for a set of servers.

    Each window ``(start_ms, end_ms)`` crashes the target server at
    ``start_ms`` and restores it at ``end_ms`` (``None`` = never: a permanent
    failure).  While a server is down it starts no new service and clients
    route around it; requests already in flight on the network are queued and
    resume when the server restarts (see :meth:`SimServer.crash`).
    """

    def __init__(
        self,
        loop: "EventLoop",
        windows: Sequence[tuple["SimServer", float, float | None]],
    ) -> None:
        for _server, start, end in windows:
            if start < 0:
                raise ValueError("crash start must be non-negative")
            if end is not None and end <= start:
                raise ValueError(f"crash window end must follow start: {(start, end)}")
        self.loop = loop
        self.windows = list(windows)
        self.crashes = 0
        self._events: list["Event"] = []

    def start(self) -> None:
        """Schedule every crash/restart edge."""
        for server, start, end in self.windows:
            self._events.append(self.loop.schedule_at(start, self._crash, server))
            if end is not None:
                self._events.append(self.loop.schedule_at(end, self._restore, server))

    def stop(self) -> None:
        """Cancel pending edges and restart anything still down."""
        for event in self._events:
            event.cancel()
        self._events.clear()
        for server, _start, _end in self.windows:
            if not server.is_up:
                server.restore()

    def _crash(self, server: "SimServer") -> None:
        self.crashes += 1
        server.crash()

    def _restore(self, server: "SimServer") -> None:
        server.restore()


class ArrivalRateSchedule:
    """Timed arrival-rate changes (load spikes, ramps) on an arrival process.

    ``steps`` is a sequence of ``(at_ms, rate_factor)`` pairs; at each
    ``at_ms`` the arrival rate becomes ``base_rate × rate_factor`` where the
    base rate is captured when the schedule starts.  A factor of ``1.0``
    restores nominal load, so a spike is simply
    ``[(t0, 2.0), (t1, 1.0)]``.
    """

    def __init__(
        self,
        loop: "EventLoop",
        process: "PoissonArrivalProcess",
        steps: Sequence[tuple[float, float]],
    ) -> None:
        for at, factor in steps:
            if at < 0:
                raise ValueError("step time must be non-negative")
            if factor <= 0:
                raise ValueError("rate factor must be positive")
        self.loop = loop
        self.process = process
        self.steps = sorted(steps)
        self.changes = 0
        self._base_rate: float | None = None
        self._events: list["Event"] = []

    def start(self) -> None:
        """Capture the base rate and schedule every step."""
        self._base_rate = self.process.rate_per_ms
        for at, factor in self.steps:
            self._events.append(self.loop.schedule_at(at, self._apply, factor))

    def stop(self) -> None:
        """Cancel pending steps and restore the base arrival rate."""
        for event in self._events:
            event.cancel()
        self._events.clear()
        if self._base_rate is not None:
            self.process.set_rate(self._base_rate)

    def _apply(self, factor: float) -> None:
        self.changes += 1
        assert self._base_rate is not None
        self.process.set_rate(self._base_rate * factor)
