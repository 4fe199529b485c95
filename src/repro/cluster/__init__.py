"""A Cassandra-like cluster substrate for the paper's §2/§5 experiments."""

from .cluster import CassandraCluster, ClusterConfig, GeneratorGroup, run_cluster
from .coordinator import Coordinator
from .disk import DiskModel, DiskProfile, HDD_PROFILE, SSD_PROFILE
from .gossip import GossipEntry, GossipService
from .metrics import ClusterMetrics, OperationSample
from .node import ClusterNode
from .ring import TokenRing
from .storage import StorageEngine
from .workload_bridge import ClosedLoopGenerator

__all__ = [
    "CassandraCluster",
    "ClosedLoopGenerator",
    "ClusterConfig",
    "ClusterMetrics",
    "ClusterNode",
    "Coordinator",
    "DiskModel",
    "DiskProfile",
    "GeneratorGroup",
    "GossipEntry",
    "GossipService",
    "HDD_PROFILE",
    "OperationSample",
    "SSD_PROFILE",
    "StorageEngine",
    "TokenRing",
    "run_cluster",
]
