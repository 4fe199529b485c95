"""The builtin scenarios, on the spec registry strategies and controls share.

Scenarios are referenced by name from :attr:`SimulationConfig.scenario`
(with knob overrides in ``scenario_params``), which makes them sweepable
grid dimensions, cacheable by content hash, and CLI-addressable
(``c3-repro simulate --scenario gc-storm``).

Each scenario is a frozen dataclass of its typed knobs, registered on
:data:`SCENARIOS`.  Knobs resolve like strategy and control params: unknown
names get a did-you-mean, values are coerced to the field type, and the
``validate`` hook runs the component's own range check.  ``SimulationConfig``
resolves its scenario when it is constructed, so a bad knob never gets a
sweep trial key.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Mapping

from ..strategies.paramspec import resolve_param_overrides
from ..strategies.specbase import Registry, RegistryEntry
from .base import Scenario, ScenarioComponent
from .components import (
    BimodalServiceRates,
    CrashWindows,
    GCPauses,
    HeterogeneousServiceRates,
    LoadSpike,
    NetworkDelayChange,
    ScriptedComponent,
    SlowServers,
    check_crash_windows,
    check_gc_pauses,
    check_load_spike,
    check_network_delay,
    check_slowdown,
    check_spread,
)
from .processes import check_bimodal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simulator.simulation import SimulationConfig

__all__ = [
    "SCENARIOS",
    "ScenarioParams",
    "build_scenario",
    "check_scenario",
    "resolve_scenario",
    "scenario_names",
    "scenario_rate_factor",
]

SCENARIOS = Registry("scenario", kinds={"scenario": "scenario"})
#: Every registered scenario name; registration below is alphabetical.
scenario_names = SCENARIOS.names
#: Each builtin's param class is its own registration: the knobs build the perturbation.
_register = partial(SCENARIOS.register, kind="scenario")


class ScenarioParams:
    """A scenario's knobs; subclasses are frozen dataclasses of them."""

    def components(self, config: "SimulationConfig") -> tuple[ScenarioComponent, ...]:
        """The perturbation components this scenario runs under ``config``."""
        return ()

    def rate_factor(self, config: "SimulationConfig") -> float:
        """The mean service-rate multiplier the scenario induces (load sizing)."""
        return 1.0


def resolve_scenario(name: str, params: Mapping[str, Any] | None) -> tuple[RegistryEntry, ScenarioParams]:
    """The registration ``name`` resolves to and its typed, checked knobs (else ``ValueError``)."""
    entry = SCENARIOS.resolve(name)
    explicit = resolve_param_overrides(
        entry.params_cls, dict(params or {}), subject=f"scenario {entry.name}", validate=entry.validate
    )
    return entry, entry.params_cls(**explicit)


def build_scenario(config: "SimulationConfig") -> Scenario:
    """Build the scenario named by ``config.scenario`` for this run."""
    entry, params = resolve_scenario(config.scenario, config.scenario_params)
    return Scenario(name=entry.name, components=params.components(config))


def scenario_rate_factor(config: "SimulationConfig") -> float:
    """The scenario's mean service-rate multiplier (for load sizing)."""
    return float(resolve_scenario(config.scenario, config.scenario_params)[1].rate_factor(config))


def check_scenario(config: "SimulationConfig") -> None:
    """Raise ``ValueError`` unless ``config``'s scenario builds and its timelines fit its servers."""
    for component in build_scenario(config).components:
        if isinstance(component, ScriptedComponent):
            component.edges(config.num_servers)


# --------------------------------------------------------------------------
# Builtin scenarios, in name order.  Where the knobs are the component's own
# fields, ``components`` passes them on as ``**vars(self)``.
# --------------------------------------------------------------------------


@_register("baseline", description="No perturbation: homogeneous servers at steady load")
@dataclass(frozen=True)
class BaselineParams(ScenarioParams):
    """No knobs: nothing is perturbed."""


@_register(
    "bimodal",
    description="Paper §6 fluctuation: servers flip between μ and D·μ every interval",
    validate=lambda p: check_bimodal(**p),
)
@dataclass(frozen=True)
class BimodalParams(ScenarioParams):
    """``None`` takes the config's ``fluctuation_interval_ms`` / ``fluctuation_multiplier``."""

    interval_ms: float | None = None
    rate_multiplier: float | None = None
    fast_probability: float = 0.5

    def _multiplier(self, config: "SimulationConfig") -> float:
        return config.fluctuation_multiplier if self.rate_multiplier is None else self.rate_multiplier

    def components(self, config: "SimulationConfig") -> tuple[ScenarioComponent, ...]:
        interval_ms = config.fluctuation_interval_ms if self.interval_ms is None else self.interval_ms
        return (BimodalServiceRates(interval_ms, self._multiplier(config), self.fast_probability),)

    def rate_factor(self, config: "SimulationConfig") -> float:
        fast = self.fast_probability
        return (1.0 - fast) + fast * self._multiplier(config)


@_register(
    "crash-recovery",
    description="Servers crash and restart on a staggered schedule; clients route around them",
    validate=lambda p: check_crash_windows(p["first_at_ms"], p["down_ms"], p["repeats"]),
)
@dataclass(frozen=True)
class CrashRecoveryParams(ScenarioParams):
    """``down_ms=None`` crashes for good; ``targets=None`` picks two well-separated servers."""

    first_at_ms: float = 250.0
    down_ms: float | None = 400.0
    stagger_ms: float = 600.0
    repeats: int = 1
    period_ms: float = 2000.0
    targets: tuple[int, ...] | None = None

    def components(self, config: "SimulationConfig") -> tuple[ScenarioComponent, ...]:
        targets = self.targets
        if targets is None:
            # Default: two well-separated servers (one for tiny clusters), so
            # the scenario works at any num_servers without knob surgery.
            targets = tuple(sorted({0, config.num_servers // 2}))
        return (CrashWindows(**{**vars(self), "targets": targets}),)


@_register(
    "gc-storm",
    description="Frequent long GC-like pauses hitting every server",
    validate=lambda p: check_gc_pauses(**p),
)
@dataclass(frozen=True)
class GCStormParams(ScenarioParams):
    mean_interarrival_ms: float = 400.0
    mean_duration_ms: float = 60.0
    slowdown_factor: float = 6.0

    def components(self, config: "SimulationConfig") -> tuple[ScenarioComponent, ...]:
        return (GCPauses(**vars(self)),)


@_register(
    "heterogeneous",
    description="Static per-server speed diversity (unequal machines)",
    validate=lambda p: check_spread(**p),
)
@dataclass(frozen=True)
class HeterogeneousParams(ScenarioParams):
    spread: float = 2.5

    def components(self, config: "SimulationConfig") -> tuple[ScenarioComponent, ...]:
        return (HeterogeneousServiceRates(**vars(self)),)


@_register(
    "load-spike",
    description="Arrival rate multiplied during a window (flash crowd)",
    validate=lambda p: check_load_spike(**p),
)
@dataclass(frozen=True)
class LoadSpikeParams(ScenarioParams):
    """``end_ms=None`` keeps the spike to the end of the run."""

    start_ms: float = 400.0
    end_ms: float | None = 900.0
    factor: float = 1.6

    def components(self, config: "SimulationConfig") -> tuple[ScenarioComponent, ...]:
        return (LoadSpike(**vars(self)),)


@_register(
    "network-jitter",
    description="Network latency becomes jittery mid-run (EC2-like variance)",
    validate=lambda p: check_network_delay(**p),
)
@dataclass(frozen=True)
class NetworkJitterParams(ScenarioParams):
    """``None`` derives the delay (2×) and jitter (1.6×) from the config's ``network_delay_ms``."""

    at_ms: float = 250.0
    delay_ms: float | None = None
    jitter_ms: float | None = None

    def components(self, config: "SimulationConfig") -> tuple[ScenarioComponent, ...]:
        delay_ms = 2.0 * config.network_delay_ms if self.delay_ms is None else self.delay_ms
        jitter_ms = 1.6 * config.network_delay_ms if self.jitter_ms is None else self.jitter_ms
        return (NetworkDelayChange(self.at_ms, delay_ms, jitter_ms),)


@_register(
    "slow-node",
    description="One permanently slow server (degraded disk / noisy neighbor)",
    validate=lambda p: check_slowdown(p["factor"], p["start_ms"], p["end_ms"]),
)
@dataclass(frozen=True)
class SlowNodeParams(ScenarioParams):
    """``end_ms=None`` keeps server ``target`` slow to the end of the run."""

    factor: float = 4.0
    start_ms: float = 0.0
    end_ms: float | None = None
    target: int = 0

    def components(self, config: "SimulationConfig") -> tuple[ScenarioComponent, ...]:
        return (SlowServers(self.factor, self.start_ms, self.end_ms, targets=self.target),)
