"""The builtin scenario registry.

Scenarios are referenced by name from :attr:`SimulationConfig.scenario`
(with knob overrides in ``scenario_params``), which makes them sweepable
grid dimensions, cacheable by content hash, and CLI-addressable
(``c3-repro simulate --scenario gc-storm``,
``c3-repro sweep --scenario gc-storm --scenario crash-recovery …``).

Each :class:`ScenarioDefinition` declares its knobs with defaults; unknown
knob names are rejected so a typo'd ``scenario_params`` fails loudly instead
of silently running the default scenario.  ``register_scenario`` is public:
downstream code can add its own named scenarios and immediately sweep over
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from .base import Scenario, ScenarioComponent
from .components import (
    BimodalServiceRates,
    CrashWindows,
    GCPauses,
    HeterogeneousServiceRates,
    LoadSpike,
    NetworkDelayChange,
    SlowServers,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simulator.simulation import SimulationConfig

__all__ = [
    "ScenarioDefinition",
    "build_scenario",
    "get_scenario",
    "register_scenario",
    "scenario_names",
    "scenario_rate_factor",
    "validate_scenario",
]

#: Builder: (config, resolved params) -> components.
Factory = Callable[["SimulationConfig", dict], Sequence[ScenarioComponent]]
#: Rate factor: (config, resolved params) -> mean service-rate multiplier.
RateFactor = Callable[["SimulationConfig", dict], float]


@dataclass(frozen=True)
class ScenarioDefinition:
    """A named scenario template: knobs + component factory."""

    name: str
    description: str
    factory: Factory
    knobs: Mapping[str, Any] = field(default_factory=dict)
    rate_factor: RateFactor | None = None

    def resolve_params(self, params: Mapping[str, Any] | None) -> dict:
        """Merge ``params`` over the knob defaults, rejecting unknown keys."""
        params = dict(params or {})
        unknown = sorted(set(params) - set(self.knobs))
        if unknown:
            raise ValueError(
                f"unknown scenario_params {unknown} for scenario {self.name!r}; "
                f"knobs: {', '.join(sorted(self.knobs)) or '(none)'}"
            )
        resolved = dict(self.knobs)
        resolved.update(params)
        return resolved

    def build(self, config: "SimulationConfig") -> Scenario:
        """Instantiate the scenario for ``config``."""
        params = self.resolve_params(config.scenario_params)
        components = tuple(self.factory(config, params))
        factor = self.rate_factor(config, params) if self.rate_factor else 1.0
        return Scenario(
            name=self.name,
            components=components,
            rate_factor=float(factor),
            description=self.description,
        )


_REGISTRY: dict[str, ScenarioDefinition] = {}


def register_scenario(definition: ScenarioDefinition) -> ScenarioDefinition:
    """Register a scenario definition under its name (unique)."""
    if definition.name in _REGISTRY:
        raise ValueError(f"scenario {definition.name!r} is already registered")
    _REGISTRY[definition.name] = definition
    return definition


def scenario_names() -> tuple[str, ...]:
    """Every registered scenario name, sorted."""
    return tuple(sorted(_REGISTRY))


def get_scenario(name: str) -> ScenarioDefinition:
    """Look a scenario up by name (ValueError lists the known names)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; available scenarios: {', '.join(scenario_names())}"
        ) from None


def validate_scenario(name: str, params: Mapping[str, Any] | None = None) -> None:
    """Raise ValueError for an unknown name or unknown knob keys."""
    get_scenario(name).resolve_params(params)


def _definition(config: "SimulationConfig") -> ScenarioDefinition:
    if config.scenario is None:
        raise ValueError("config.scenario is None; nothing to build")
    return get_scenario(config.scenario)


def build_scenario(config: "SimulationConfig") -> Scenario:
    """Build the scenario named by ``config.scenario`` for this run."""
    return _definition(config).build(config)


def scenario_rate_factor(config: "SimulationConfig") -> float:
    """The scenario's mean service-rate multiplier (for load sizing)."""
    definition = _definition(config)
    params = definition.resolve_params(config.scenario_params)
    if definition.rate_factor is None:
        return 1.0
    return float(definition.rate_factor(config, params))


# --------------------------------------------------------------------------
# Builtin scenarios.
# --------------------------------------------------------------------------

register_scenario(
    ScenarioDefinition(
        name="baseline",
        description="No perturbation: homogeneous servers at steady load",
        factory=lambda config, params: (),
    )
)


def _bimodal_multiplier(config: "SimulationConfig", params: dict) -> float:
    multiplier = params["rate_multiplier"]
    return config.fluctuation_multiplier if multiplier is None else multiplier


def _bimodal_components(config: "SimulationConfig", params: dict) -> Sequence[ScenarioComponent]:
    interval_ms = params["interval_ms"]
    return (
        BimodalServiceRates(
            interval_ms=config.fluctuation_interval_ms if interval_ms is None else interval_ms,
            rate_multiplier=_bimodal_multiplier(config, params),
            fast_probability=params["fast_probability"],
        ),
    )


def _bimodal_rate_factor(config: "SimulationConfig", params: dict) -> float:
    fast = params["fast_probability"]
    return (1.0 - fast) + fast * _bimodal_multiplier(config, params)


register_scenario(
    ScenarioDefinition(
        name="bimodal",
        description="Paper §6 fluctuation: servers flip between μ and D·μ every interval",
        factory=_bimodal_components,
        knobs={"interval_ms": None, "rate_multiplier": None, "fast_probability": 0.5},
        rate_factor=_bimodal_rate_factor,
    )
)

register_scenario(
    ScenarioDefinition(
        name="gc-storm",
        description="Frequent long GC-like pauses hitting every server",
        factory=lambda config, params: (
            GCPauses(
                mean_interarrival_ms=params["mean_interarrival_ms"],
                mean_duration_ms=params["mean_duration_ms"],
                slowdown_factor=params["slowdown_factor"],
            ),
        ),
        knobs={
            "mean_interarrival_ms": 400.0,
            "mean_duration_ms": 60.0,
            "slowdown_factor": 6.0,
        },
    )
)


def _crash_recovery_components(config: "SimulationConfig", params: dict) -> Sequence[ScenarioComponent]:
    targets = params["targets"]
    if targets is None:
        # Default: two well-separated servers (one for tiny clusters), so
        # the scenario works at any num_servers without knob surgery.
        targets = tuple(sorted({0, config.num_servers // 2}))
    return (
        CrashWindows(
            first_at_ms=params["first_at_ms"],
            down_ms=params["down_ms"],
            stagger_ms=params["stagger_ms"],
            repeats=int(params["repeats"]),
            period_ms=params["period_ms"],
            targets=tuple(targets),
        ),
    )


register_scenario(
    ScenarioDefinition(
        name="crash-recovery",
        description="Servers crash and restart on a staggered schedule; clients route around them",
        factory=_crash_recovery_components,
        knobs={
            "first_at_ms": 250.0,
            "down_ms": 400.0,
            "stagger_ms": 600.0,
            "repeats": 1,
            "period_ms": 2000.0,
            "targets": None,
        },
    )
)

register_scenario(
    ScenarioDefinition(
        name="slow-node",
        description="One permanently slow server (degraded disk / noisy neighbor)",
        factory=lambda config, params: (
            SlowServers(
                factor=params["factor"],
                start_ms=params["start_ms"],
                end_ms=params["end_ms"],
                targets=int(params["target"]),
            ),
        ),
        knobs={"factor": 4.0, "start_ms": 0.0, "end_ms": None, "target": 0},
    )
)


def _network_jitter_components(config: "SimulationConfig", params: dict) -> Sequence[ScenarioComponent]:
    delay_ms = params["delay_ms"]
    jitter_ms = params["jitter_ms"]
    return (
        NetworkDelayChange(
            at_ms=params["at_ms"],
            delay_ms=2.0 * config.network_delay_ms if delay_ms is None else delay_ms,
            jitter_ms=1.6 * config.network_delay_ms if jitter_ms is None else jitter_ms,
        ),
    )


register_scenario(
    ScenarioDefinition(
        name="network-jitter",
        description="Network latency becomes jittery mid-run (EC2-like variance)",
        factory=_network_jitter_components,
        knobs={"at_ms": 250.0, "delay_ms": None, "jitter_ms": None},
    )
)

register_scenario(
    ScenarioDefinition(
        name="load-spike",
        description="Arrival rate multiplied during a window (flash crowd)",
        factory=lambda config, params: (
            LoadSpike(
                start_ms=params["start_ms"],
                end_ms=params["end_ms"],
                factor=params["factor"],
            ),
        ),
        knobs={"start_ms": 400.0, "end_ms": 900.0, "factor": 1.6},
    )
)

register_scenario(
    ScenarioDefinition(
        name="heterogeneous",
        description="Static per-server speed diversity (unequal machines)",
        factory=lambda config, params: (HeterogeneousServiceRates(spread=params["spread"]),),
        knobs={"spread": 2.5},
    )
)
