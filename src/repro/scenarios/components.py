"""Declarative scenario components.

Each component is a frozen dataclass of plain-JSON-able knobs whose ``start``
schedules its own edges against a
:class:`~repro.scenarios.base.ScenarioContext` and whose ``stop`` undoes
them.  Components are the vocabulary builtin scenarios are written in, and
the intended extension point for new ones: a new workload is a new
combination of these (or one new component), not a new simulator code path.

The scripted components (:class:`SlowServers`, :class:`CrashWindows`) are
their :meth:`~ScriptedComponent.edges`: ``(at_ms, server_index, op)`` in the
live control vocabulary (``{"op": "slow", "factor": f}``,
``{"op": "crash"}``, ``{"op": "restore"}``).  The simulator schedules that
list on its event loop and the live harness replays it over the control
channel, so both backends run one timeline.

A component checks its knobs when it is built, with a ``check_*`` function
that the scenario registry's ``validate`` hooks call too: a bad knob fails
when a config names it, and a hand-built component fails the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import methodcaller
from typing import TYPE_CHECKING, Any

from .base import ScenarioComponent, ScenarioContext, target_indices
from .processes import BimodalFluctuation, PoissonEpisodes, check_bimodal, check_episodes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simulator.server import SimServer

__all__ = [
    "BimodalServiceRates",
    "CrashWindows",
    "Edge",
    "GCPauses",
    "HeterogeneousServiceRates",
    "LoadSpike",
    "NetworkDelayChange",
    "ScriptedComponent",
    "SlowServers",
    "check_crash_windows",
    "check_gc_pauses",
    "check_load_spike",
    "check_network_delay",
    "check_slowdown",
    "check_spread",
]

#: One scripted control edge: ``(at_ms, server_index, op)``.
Edge = tuple[float, int, dict[str, Any]]


@dataclass(frozen=True)
class BimodalServiceRates(ScenarioComponent):
    """The paper's §6 fluctuation model as a component.

    Servers flip between μ and ``rate_multiplier × μ`` every
    ``interval_ms``, independently, with probability ``fast_probability`` of
    the fast mode.
    """

    interval_ms: float = 100.0
    rate_multiplier: float = 3.0
    fast_probability: float = 0.5
    targets: object = "all"

    def __post_init__(self) -> None:
        check_bimodal(self.interval_ms, self.rate_multiplier, self.fast_probability)

    def start(self, ctx: ScenarioContext) -> None:
        process = BimodalFluctuation(
            loop=ctx.loop,
            servers=ctx.resolve_targets(self.targets),
            interval_ms=self.interval_ms,
            rate_multiplier=self.rate_multiplier,
            fast_probability=self.fast_probability,
            rng=ctx.spawn_rng(),
        )
        object.__setattr__(self, "_process", process)
        process.start()

    def stop(self) -> None:
        getattr(self, "_process").stop()


def check_gc_pauses(mean_interarrival_ms: float, mean_duration_ms: float, slowdown_factor: float) -> None:
    """``GCPauses``' knob constraints."""
    check_episodes(mean_interarrival_ms, mean_duration_ms)
    if slowdown_factor <= 0:
        raise ValueError("slowdown_factor must be positive")


@dataclass(frozen=True)
class GCPauses(ScenarioComponent):
    """Poisson-arriving GC-pause-like slowdowns on the target servers.

    Each pause slows its server by ``slowdown_factor`` for an exponentially
    distributed duration; pauses arrive per server as a Poisson process.
    """

    mean_interarrival_ms: float = 1000.0
    mean_duration_ms: float = 100.0
    slowdown_factor: float = 4.0
    targets: object = "all"

    def __post_init__(self) -> None:
        check_gc_pauses(self.mean_interarrival_ms, self.mean_duration_ms, self.slowdown_factor)

    def start(self, ctx: ScenarioContext) -> None:
        servers = ctx.resolve_targets(self.targets)
        rng = ctx.spawn_rng()
        # The factor is keyed by a token, not by the episode loop: the actions
        # live on the loop, and one that held the loop would be a cycle.
        source = object()
        episodes = PoissonEpisodes(
            ctx.loop,
            servers,
            self.mean_interarrival_ms,
            self.mean_duration_ms,
            rng,
            None,
            begin=methodcaller("set_service_time_multiplier", float(self.slowdown_factor), source=source),
            end=methodcaller("set_service_time_multiplier", 1.0, source=source),
        )
        object.__setattr__(self, "_episodes", episodes)
        episodes.start()

    def stop(self) -> None:
        getattr(self, "_episodes").stop()


def _apply(server: "SimServer", op: dict[str, Any], source: object) -> None:
    """Apply one control edge to a simulated server."""
    if op["op"] == "slow":
        server.set_service_time_multiplier(op["factor"], source=source)
    elif op["op"] == "crash":
        server.crash()
    else:
        server.restore()


class ScriptedComponent(ScenarioComponent):
    """A component whose perturbation is a fixed timeline of control edges.

    :meth:`edges` is the one definition of that timeline.  ``start``
    schedules every edge on the loop in list order; ``stop`` cancels what is
    still pending and undoes every edge: a slowdown is withdrawn and a
    crashed server restored.
    """

    def edges(self, num_servers: int) -> list[Edge]:
        """The timeline on ``num_servers`` servers, in scheduling order."""
        raise NotImplementedError

    def start(self, ctx: ScenarioContext) -> None:
        # Speed factors are keyed by a token of this start, so that two equal
        # components compose instead of sharing one factor.
        source = object()
        events = []
        applied = []
        for at_ms, index, op in self.edges(len(ctx.servers)):
            server = ctx.servers[index]
            events.append(ctx.loop.schedule_at(at_ms, _apply, server, op, source))
            applied.append((server, op))
        object.__setattr__(self, "_undo", (events, applied, source))

    def stop(self) -> None:
        events, applied, source = getattr(self, "_undo")
        for event in events:
            event.cancel()
        for server, op in applied:
            if op["op"] == "slow":
                server.set_service_time_multiplier(1.0, source=source)
            else:
                server.restore()


def check_slowdown(factor: float, start_ms: float, end_ms: float | None) -> None:
    """``SlowServers``' knob constraints."""
    if start_ms < 0:
        raise ValueError(f"slowdown start must be non-negative, got {start_ms}")
    if end_ms is not None and end_ms <= start_ms:
        raise ValueError(f"episode end must follow start: {(start_ms, end_ms)}")
    if factor <= 0:
        raise ValueError("slowdown factor must be positive")


@dataclass(frozen=True)
class SlowServers(ScriptedComponent):
    """Scripted slowdown episodes on the target servers.

    ``end_ms=None`` makes the slowdown permanent — a heterogeneity /
    "one bad node" model rather than an episode.
    """

    factor: float = 4.0
    start_ms: float = 0.0
    end_ms: float | None = None
    targets: object = 0

    def __post_init__(self) -> None:
        check_slowdown(self.factor, self.start_ms, self.end_ms)

    def edges(self, num_servers: int) -> list[Edge]:
        edges: list[Edge] = []
        for index in target_indices(self.targets, num_servers):
            edges.append((self.start_ms, index, {"op": "slow", "factor": float(self.factor)}))
            if self.end_ms is not None:
                edges.append((self.end_ms, index, {"op": "slow", "factor": 1.0}))
        return edges


def check_crash_windows(first_at_ms: float, down_ms: float | None, repeats: int) -> None:
    """``CrashWindows``' knob constraints; ``edges`` checks the later, staggered starts."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if first_at_ms < 0:
        raise ValueError("crash start must be non-negative")
    if down_ms is not None and down_ms <= 0:
        raise ValueError(f"crash window end must follow start: down_ms={down_ms}")


@dataclass(frozen=True)
class CrashWindows(ScriptedComponent):
    """Crash + restart the target servers on a staggered schedule.

    Target server ``k`` (in resolution order) crashes at
    ``first_at_ms + k × stagger_ms`` and restarts ``down_ms`` later
    (``down_ms=None`` = permanent failure).  ``repeats`` > 1 replays the
    window every ``period_ms``.  While a server is down it starts no new
    service and clients route around it; requests already on the network
    queue and resume when it restarts (see :meth:`SimServer.crash`).
    """

    first_at_ms: float = 250.0
    down_ms: float | None = 400.0
    stagger_ms: float = 600.0
    repeats: int = 1
    period_ms: float = 2000.0
    targets: object = (0,)

    def __post_init__(self) -> None:
        check_crash_windows(self.first_at_ms, self.down_ms, self.repeats)

    def edges(self, num_servers: int) -> list[Edge]:
        edges: list[Edge] = []
        for k, index in enumerate(target_indices(self.targets, num_servers)):
            for r in range(self.repeats):
                start = self.first_at_ms + k * self.stagger_ms + r * self.period_ms
                if start < 0:
                    raise ValueError("crash start must be non-negative")
                edges.append((start, index, {"op": "crash"}))
                if self.down_ms is not None:
                    edges.append((start + self.down_ms, index, {"op": "restore"}))
        return edges


def check_network_delay(at_ms: float, delay_ms: float | None, jitter_ms: float | None) -> None:
    """``NetworkDelayChange``' knob constraints; ``None`` is a value derived from the config."""
    if at_ms < 0:
        raise ValueError(f"network change time must be non-negative, got {at_ms}")
    if delay_ms is not None and delay_ms < 0:
        raise ValueError(f"network delay_ms must be non-negative, got {delay_ms}")
    if jitter_ms is not None and jitter_ms < 0:
        raise ValueError(f"network jitter_ms must be non-negative, got {jitter_ms}")
    if delay_ms is not None and jitter_ms is not None and jitter_ms > delay_ms:
        raise ValueError("jitter must not exceed the base latency")


@dataclass(frozen=True)
class NetworkDelayChange(ScenarioComponent):
    """Swap the network model at ``at_ms`` (latency step and/or jitter).

    With ``jitter_ms=0`` this is a pure latency step
    (:class:`~repro.simulator.network.ConstantLatency`); with a positive
    jitter the model becomes
    :class:`~repro.simulator.network.JitteredLatency` around ``delay_ms``.
    """

    at_ms: float = 0.0
    delay_ms: float = 0.25
    jitter_ms: float = 0.0

    def __post_init__(self) -> None:
        check_network_delay(self.at_ms, self.delay_ms, self.jitter_ms)

    def start(self, ctx: ScenarioContext) -> None:
        from ..simulator.network import ConstantLatency, JitteredLatency, NetworkModel

        model: NetworkModel
        if self.jitter_ms > 0:
            model = JitteredLatency(self.delay_ms, self.jitter_ms, rng=ctx.spawn_rng())
        else:
            model = ConstantLatency(self.delay_ms)
        object.__setattr__(self, "_ctx", ctx)
        object.__setattr__(self, "_original", ctx.network)
        event = ctx.loop.schedule_at(self.at_ms, ctx.set_network, model)
        object.__setattr__(self, "_event", event)

    def stop(self) -> None:
        # Cancel the pending swap (no-op if it already fired) before
        # restoring, so a stale event cannot re-apply the model afterwards.
        getattr(self, "_event").cancel()
        getattr(self, "_ctx").set_network(getattr(self, "_original"))


def check_load_spike(start_ms: float, end_ms: float | None, factor: float) -> None:
    """``LoadSpike``' knob constraints."""
    if end_ms is not None and end_ms <= start_ms:
        raise ValueError("end_ms must follow start_ms")
    if start_ms < 0:
        raise ValueError("step time must be non-negative")
    if factor <= 0:
        raise ValueError("rate factor must be positive")


@dataclass(frozen=True)
class LoadSpike(ScenarioComponent):
    """Multiply the arrival rate by ``factor`` between ``start_ms`` and ``end_ms``.

    The base rate is the one the arrival process has when the component
    starts; ``end_ms=None`` keeps the spike to the end of the run.
    """

    start_ms: float = 500.0
    end_ms: float | None = 1000.0
    factor: float = 2.0

    def __post_init__(self) -> None:
        check_load_spike(self.start_ms, self.end_ms, self.factor)

    def start(self, ctx: ScenarioContext) -> None:
        steps = [(self.start_ms, self.factor)]
        if self.end_ms is not None:
            steps.append((self.end_ms, 1.0))
        process = ctx.arrival_process
        base_rate = process.rate_per_ms
        events = [ctx.loop.schedule_at(at, process.set_rate, base_rate * factor) for at, factor in steps]
        object.__setattr__(self, "_undo", (events, process, base_rate))

    def stop(self) -> None:
        events, process, base_rate = getattr(self, "_undo")
        for event in events:
            event.cancel()
        process.set_rate(base_rate)


def check_spread(spread: float) -> None:
    """``HeterogeneousServiceRates``' knob constraint."""
    if spread < 1.0:
        raise ValueError("spread must be >= 1")


@dataclass(frozen=True)
class HeterogeneousServiceRates(ScenarioComponent):
    """Static per-server speed diversity.

    Each target server gets a service-*time* multiplier drawn uniformly from
    ``[1/spread, spread]`` (from the scenario RNG stream), modeling a fleet
    of unequal machines rather than time-varying behavior.
    """

    spread: float = 2.0
    targets: object = "all"

    def __post_init__(self) -> None:
        check_spread(self.spread)

    def start(self, ctx: ScenarioContext) -> None:
        rng = ctx.spawn_rng()
        servers = ctx.resolve_targets(self.targets)
        for server in servers:
            server.set_service_time_multiplier(
                float(rng.uniform(1.0 / self.spread, self.spread)), source=self
            )
        object.__setattr__(self, "_servers", servers)

    def stop(self) -> None:
        for server in getattr(self, "_servers"):
            server.set_service_time_multiplier(1.0, source=self)
