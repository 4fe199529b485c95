"""repro — a reproduction of *C3: Cutting Tail Latency in Cloud Data Stores
via Adaptive Replica Selection* (Suresh et al., NSDI 2015).

The package is organised as:

* :mod:`repro.core`        — the C3 algorithm itself (ranking, rate control,
  backpressure, scheduling), usable standalone.
* :mod:`repro.strategies`  — C3 plus every baseline selector (LOR, RR, ORA,
  Dynamic Snitching, …) behind one interface.
* :mod:`repro.controls`    — orthogonal control-plane policies (failure
  detection, hedged requests, rate control) behind a spec registry.
* :mod:`repro.simulator`   — the flat discrete-event simulator of §6.
* :mod:`repro.cluster`     — a Cassandra-like cluster substrate for the §2/§5
  experiments (token ring, coordinators, disks, gossip, snitching).
* :mod:`repro.workloads`   — YCSB-style workload generation.
* :mod:`repro.analysis`    — percentiles, ECDFs, oscillation metrics, reports.
* :mod:`repro.experiments` — one module per paper figure/table.
* :mod:`repro.live`        — the same specs driving real server processes.

The names in ``__all__`` are exported lazily (PEP 562): ``import repro``
loads no subpackage, and ``repro.SimulationConfig`` or ``from repro import
SimulationConfig`` imports :mod:`repro.simulator` on first use.  A
replica server run by hand (``python -m repro.live.server``) imports this
package on its way to :mod:`repro.live.server`, so it does not pay for the
simulator, the strategies or numpy; the servers of a live trial are forked
from the harness and import nothing.
"""

from importlib import import_module
from typing import Any

__version__ = "1.0.0"

#: Public name -> the subpackage that defines it.
_EXPORTS = {
    "ControlSpec": "controls",
    "control_names": "controls",
    "register_control": "controls",
    "C3Config": "core",
    "C3Scheduler": "core",
    "CubicRateController": "core",
    "EWMA": "core",
    "ReplicaScorer": "core",
    "ScheduleDecision": "core",
    "ServerFeedback": "core",
    "cubic_rate": "core",
    "cubic_score": "core",
    "DemandSkew": "simulator",
    "ReplicaSelectionSimulation": "simulator",
    "SimulationConfig": "simulator",
    "SimulationResult": "simulator",
    "run_simulation": "simulator",
    "STRATEGY_NAMES": "strategies",
    "StrategySpec": "strategies",
    "make_selector": "strategies",
    "register_strategy": "strategies",
    "strategy_names": "strategies",
    "LatencySummary": "analysis",
    "summarize": "analysis",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str) -> Any:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
