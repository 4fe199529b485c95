"""Composable fault/perturbation scenarios for the simulator.

Two layers:

* :mod:`repro.scenarios.components` — declarative components that schedule
  and undo their own edges against a :class:`ScenarioContext`.  The scripted
  ones (``SlowServers``, ``CrashWindows``) are a list of control edges that
  the live harness replays as it is; ``BimodalServiceRates`` and ``GCPauses``
  run the two loops of :mod:`repro.scenarios.processes`, which the legacy
  fluctuation path and the cluster's compaction and GC-pause processes
  share;
* :mod:`repro.scenarios.registry` — named builtin scenarios
  (``baseline``, ``bimodal``, ``gc-storm``, ``crash-recovery``,
  ``slow-node``, ``network-jitter``, ``load-spike``, ``heterogeneous``), each
  a typed param dataclass on the spec registry :data:`SCENARIOS`,
  addressable from :attr:`SimulationConfig.scenario`, sweep grids and the CLI.
"""

from .base import Scenario, ScenarioComponent, ScenarioContext
from .components import (
    BimodalServiceRates,
    CrashWindows,
    GCPauses,
    HeterogeneousServiceRates,
    LoadSpike,
    NetworkDelayChange,
    ScriptedComponent,
    SlowServers,
)
from .processes import BimodalFluctuation
from .registry import SCENARIOS, build_scenario, scenario_names, scenario_rate_factor

__all__ = [
    "SCENARIOS",
    "BimodalFluctuation",
    "BimodalServiceRates",
    "CrashWindows",
    "GCPauses",
    "HeterogeneousServiceRates",
    "LoadSpike",
    "NetworkDelayChange",
    "Scenario",
    "ScenarioComponent",
    "ScenarioContext",
    "ScriptedComponent",
    "SlowServers",
    "build_scenario",
    "scenario_names",
    "scenario_rate_factor",
]
