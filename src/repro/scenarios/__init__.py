"""Composable fault/perturbation scenarios for the simulator.

Three layers:

* :mod:`repro.scenarios.processes` — imperative, loop-attached perturbation
  processes (the primitives; the three paper-era ones are also exported
  from :mod:`repro.simulator`), among them ``PoissonEpisodes``, the one
  begin → last → end → repeat loop that ``TransientSlowdowns`` and the
  cluster's compaction and GC-pause processes are faces of;
* :mod:`repro.scenarios.components` — declarative components that
  instantiate the processes against a :class:`ScenarioContext`;
* :mod:`repro.scenarios.registry` — named builtin scenarios
  (``baseline``, ``bimodal``, ``gc-storm``, ``crash-recovery``,
  ``slow-node``, ``network-jitter``, ``load-spike``, ``heterogeneous``)
  addressable from :attr:`SimulationConfig.scenario`, sweep grids and the
  CLI.
"""

from .base import Scenario, ScenarioComponent, ScenarioContext
from .components import (
    BimodalServiceRates,
    CrashWindows,
    GCPauses,
    HeterogeneousServiceRates,
    LoadSpike,
    NetworkDelayChange,
    SlowServers,
)
from .processes import (
    ArrivalRateSchedule,
    BimodalFluctuation,
    CrashSchedule,
    LatencyInflation,
    TransientSlowdowns,
)
from .registry import (
    ScenarioDefinition,
    build_scenario,
    get_scenario,
    register_scenario,
    scenario_names,
    scenario_rate_factor,
    validate_scenario,
)

__all__ = [
    "ArrivalRateSchedule",
    "BimodalFluctuation",
    "BimodalServiceRates",
    "CrashSchedule",
    "CrashWindows",
    "GCPauses",
    "HeterogeneousServiceRates",
    "LatencyInflation",
    "LoadSpike",
    "NetworkDelayChange",
    "Scenario",
    "ScenarioComponent",
    "ScenarioContext",
    "ScenarioDefinition",
    "SlowServers",
    "TransientSlowdowns",
    "build_scenario",
    "get_scenario",
    "register_scenario",
    "scenario_names",
    "scenario_rate_factor",
    "validate_scenario",
]
