"""The flat discrete-event simulation substrate (§6 of the paper)."""

from ..scenarios.processes import BimodalFluctuation
from .engine import Event, EventLoop, SimulationError
from .metrics import METRICS_MODES, MetricsCollector, SimulationResult, WindowedCounter
from .network import ConstantLatency, JitteredLatency, LognormalLatency, NetworkModel
from .request import Request, RequestKind
from .server import SimServer
from .simulation import KERNELS, RNGS, ReplicaSelectionSimulation, SimulationConfig, run_simulation
from .client import SimClient
from .workload import DemandSkew, PoissonArrivalProcess, WorkloadGenerator, replica_groups

__all__ = [
    "BimodalFluctuation",
    "KERNELS",
    "METRICS_MODES",
    "RNGS",
    "ConstantLatency",
    "DemandSkew",
    "Event",
    "EventLoop",
    "JitteredLatency",
    "LognormalLatency",
    "MetricsCollector",
    "NetworkModel",
    "PoissonArrivalProcess",
    "ReplicaSelectionSimulation",
    "Request",
    "RequestKind",
    "SimClient",
    "SimServer",
    "SimulationConfig",
    "SimulationError",
    "SimulationResult",
    "WindowedCounter",
    "WorkloadGenerator",
    "replica_groups",
    "run_simulation",
]
