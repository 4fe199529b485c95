"""Cluster assembly: a Cassandra-like deployment on the event-loop substrate.

:class:`ClusterConfig` describes one deployment + workload scenario (number
of nodes, disk type, snitching strategy, generator groups, background
maintenance, …) and :class:`CassandraCluster` wires everything together and
runs it: token ring, storage nodes, coordinators with their selectors,
gossip, compaction and GC-pause episodes, and closed-loop YCSB generators.

Compactions and GC pauses are the operators' dominant sources of latency
spikes (§2.1).  Each is a :class:`~repro.scenarios.processes.PoissonEpisodes`
loop over the nodes: a compaction raises a node's storage iowait and
multiplies its read service times; a GC pause stalls the node's stage
(``crash`` / ``restore``) while requests keep queueing.  Neither loop is
stopped: the cluster ends a run by releasing its loop.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import methodcaller
from typing import Any, Hashable, Mapping

import numpy as np

from ..controls import ControlSpec
from ..core.config import C3Config
from ..scenarios.processes import PoissonEpisodes
from ..simulator.engine import EventLoop, SimulationError
from ..simulator.network import ConstantLatency, NetworkModel
from ..simulator.metrics import SimulationResult
from ..simulator.request import Request
from ..simulator.server import server_state_reader
from ..strategies import StrategySpec
from ..workloads.records import FixedRecordSize, ZipfSkewedRecordSize
from ..workloads.ycsb import YCSBWorkload
from .coordinator import Coordinator
from .disk import DiskProfile, HDD_PROFILE, SSD_PROFILE
from .gossip import GossipService
from .metrics import ClusterMetrics
from .node import ClusterNode
from .ring import TokenRing
from .storage import StorageEngine
from .workload_bridge import ClosedLoopGenerator

__all__ = ["DISK_PROFILES", "GeneratorGroup", "ClusterConfig", "CassandraCluster", "run_cluster"]

#: Fixed parameters of the scaled-down §5 deployment (no scenario varies them).
NODE_CONCURRENCY = 8
GOSSIP_INTERVAL_MS = 1_000.0
COMPACTION_DURATION_MS = 1_500.0
GC_PAUSE_MS = 100.0
ZIPF_THETA = 0.99
#: ``ClusterConfig.disk`` -> the profile it selects.
DISK_PROFILES = {"hdd": HDD_PROFILE, "ssd": SSD_PROFILE}


@dataclass(slots=True)
class GeneratorGroup:
    """A group of identically-configured closed-loop generators.

    Attributes
    ----------
    count:
        Number of generator "threads" in the group.
    mix:
        Workload mix name (``read_heavy`` / ``update_heavy`` / ``read_only``).
    start_at_ms:
        When the group starts issuing (used by the Figure 11 experiment where
        update-heavy generators join an already-running read-heavy workload).
    label:
        Label attached to the group's operations (defaults to the mix name).
    skewed_record_sizes:
        When True, record sizes follow the Zipf-skewed model instead of fixed
        1 KB records (the §5 "skewed record sizes" experiment).
    """

    count: int
    mix: str = "read_heavy"
    start_at_ms: float = 0.0
    label: str = ""
    skewed_record_sizes: bool = False

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.start_at_ms < 0:
            raise ValueError("start_at_ms must be non-negative")
        if not self.label:
            self.label = self.mix


@dataclass(slots=True)
class ClusterConfig:
    """Parameters of one cluster run (scaled-down §5 deployment by default).

    ``strategy`` accepts the same forms as
    :attr:`~repro.simulator.simulation.SimulationConfig.strategy` — bare
    names, parameterized spec strings, mappings, or a
    :class:`~repro.strategies.StrategySpec` — and is normalized to the
    canonical spec string at construction.

    ``hedging`` turns on hedged reads — Cassandra's speculative retry — with
    a control spec such as ``"hedge:quantile=0.99"`` (the paper's
    ``99percentile`` configuration).
    """

    num_nodes: int = 15
    replication_factor: int = 3
    disk: str = "hdd"
    cache_hit_probability: float = 0.1
    strategy: "str | Mapping[str, Any] | StrategySpec" = "C3"
    num_generators: int = 40
    workload_mix: str = "read_heavy"
    generator_groups: list[GeneratorGroup] | None = None
    duration_ms: float = 2_000.0
    drain_timeout_ms: float = 10_000.0
    num_keys: int = 10_000
    read_repair_probability: float = 0.1
    hedging: "str | Mapping[str, Any] | ControlSpec | None" = None
    network_delay_ms: float = 0.25
    compaction_enabled: bool = True
    compaction_interarrival_ms: float = 15_000.0
    gc_enabled: bool = True
    gc_interarrival_ms: float = 8_000.0
    window_ms: float = 100.0
    seed: int = 0

    def __post_init__(self) -> None:
        self.strategy = StrategySpec.parse(self.strategy).canonical()
        if self.hedging is not None:
            self.hedging = ControlSpec.parse(self.hedging, kind="hedge").canonical()
        if self.num_nodes < self.replication_factor:
            raise ValueError("num_nodes must be >= replication_factor")
        if self.duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        if self.num_generators < 1 and not self.generator_groups:
            raise ValueError("need at least one generator")
        if self.disk not in DISK_PROFILES:
            raise ValueError(f"disk must be {' or '.join(map(repr, DISK_PROFILES))}")

    @property
    def disk_profile(self) -> DiskProfile:
        """The configured disk profile."""
        return DISK_PROFILES[self.disk]

    @property
    def strategy_spec(self) -> StrategySpec:
        """The canonical :class:`StrategySpec` of this run's strategy."""
        return StrategySpec.parse(self.strategy)

    @property
    def hedging_spec(self) -> ControlSpec | None:
        """The canonical :class:`ControlSpec` of the hedging policy, if any."""
        if self.hedging is None:
            return None
        return ControlSpec.parse(self.hedging, kind="hedge")

    def groups(self) -> list[GeneratorGroup]:
        """The generator groups (a single default group when none given)."""
        if self.generator_groups:
            return list(self.generator_groups)
        return [GeneratorGroup(count=self.num_generators, mix=self.workload_mix)]

    def copy(self, **overrides) -> "ClusterConfig":
        """A copy of this config with ``overrides`` applied."""
        return replace(self, **overrides)


class CassandraCluster:
    """Builds and runs one cluster scenario.

    Lifecycle: build → run → release, as for the flat simulator.  A cluster
    runs once; at the end of :meth:`run` it unhooks what closes its graph
    into a cycle and releases its event loop, so dropping the last reference
    frees it by reference counting.  Nodes, coordinators, selectors, gossip,
    metrics and the loop's clock and event count stay readable afterwards.
    """

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.loop = EventLoop()
        self.rng = np.random.default_rng(config.seed)
        self.metrics = ClusterMetrics(window_ms=config.window_ms)
        self.network: NetworkModel = ConstantLatency(config.network_delay_ms)

        self.node_ids = list(range(config.num_nodes))
        self.ring = TokenRing(self.node_ids, config.replication_factor)
        self.gossip = GossipService(self.loop, interval_ms=GOSSIP_INTERVAL_MS)
        self.nodes: dict[Hashable, ClusterNode] = {}
        self.coordinators: dict[Hashable, Coordinator] = {}
        self.generators: list[ClosedLoopGenerator] = []
        self.compaction: PoissonEpisodes | None = None
        self.gc: PoissonEpisodes | None = None
        self._ran = False
        self._build()

    # ------------------------------------------------------------------ assembly
    def _build(self) -> None:
        cfg = self.config
        for node_id in self.node_ids:
            storage = StorageEngine(
                profile=cfg.disk_profile,
                cache_hit_probability=cfg.cache_hit_probability,
                rng=np.random.default_rng(self.rng.integers(2**63)),
            )
            node = ClusterNode(
                loop=self.loop,
                node_id=node_id,
                storage=storage,
                concurrency=NODE_CONCURRENCY,
                on_complete=self._route_response,
                rng=np.random.default_rng(self.rng.integers(2**63)),
            )
            self.nodes[node_id] = node
            self.gossip.register(node_id, lambda s=storage: s.iowait)

        c3_config = C3Config().with_clients(cfg.num_nodes)
        strategy_spec = cfg.strategy_spec
        hedging_spec = cfg.hedging_spec
        node_state_fn = server_state_reader(self.nodes)
        for node_id in self.node_ids:
            selector = strategy_spec.build(
                rng=np.random.default_rng(self.rng.integers(2**63)),
                server_state_fn=node_state_fn,
                iowait_fn=self.gossip.latest_iowait,
                c3_config=c3_config,
            )
            coordinator = Coordinator(
                loop=self.loop,
                node_id=node_id,
                ring=self.ring,
                selector=selector,
                nodes=self.nodes,
                network=self.network,
                metrics=self.metrics,
                read_repair_probability=cfg.read_repair_probability,
                speculative_retry=None if hedging_spec is None else hedging_spec.build(),
                rng=np.random.default_rng(self.rng.integers(2**63)),
            )
            self.coordinators[node_id] = coordinator

        self._build_generators()

        if cfg.compaction_enabled:
            self.compaction = PoissonEpisodes(
                self.loop,
                [node.storage for node in self.nodes.values()],
                cfg.compaction_interarrival_ms,
                COMPACTION_DURATION_MS,
                np.random.default_rng(self.rng.integers(2**63)),
                begin=methodcaller("begin_compaction"),
                end=methodcaller("end_compaction"),
            )
        if cfg.gc_enabled:
            self.gc = PoissonEpisodes(
                self.loop,
                list(self.nodes.values()),
                cfg.gc_interarrival_ms,
                GC_PAUSE_MS,
                np.random.default_rng(self.rng.integers(2**63)),
                begin=methodcaller("crash"),
                end=methodcaller("restore"),
            )

    def _build_generators(self) -> None:
        cfg = self.config
        generator_id = 0
        for group in cfg.groups():
            for _ in range(group.count):
                record_sizes = (
                    ZipfSkewedRecordSize(rng=np.random.default_rng(self.rng.integers(2**63)))
                    if group.skewed_record_sizes
                    else FixedRecordSize(1024)
                )
                workload = YCSBWorkload(
                    mix=group.mix,
                    num_keys=cfg.num_keys,
                    zipf_theta=ZIPF_THETA,
                    record_sizes=record_sizes,
                    rng=np.random.default_rng(self.rng.integers(2**63)),
                )
                coordinator = self.coordinators[self.node_ids[generator_id % len(self.node_ids)]]
                generator = ClosedLoopGenerator(
                    loop=self.loop,
                    generator_id=generator_id,
                    workload=workload,
                    coordinator=coordinator,
                    group_label=group.label,
                    start_at_ms=group.start_at_ms,
                    stop_issuing_at_ms=cfg.duration_ms,
                )
                self.generators.append(generator)
                generator_id += 1

    # ------------------------------------------------------------------- routing
    def _route_response(self, request: Request, feedback, service_time: float) -> None:
        coordinator = self.coordinators[request.client_id]
        if request.server_id == coordinator.node_id:
            delay = 0.02
        else:
            delay = self.network.one_way_delay(request.server_id, coordinator.node_id)
        self.loop.post(delay, coordinator.on_remote_response, request, feedback, service_time)

    # ----------------------------------------------------------------------- run
    def pending_operations(self) -> int:
        """Client operations currently in flight across all coordinators."""
        return sum(c.pending_operations for c in self.coordinators.values())

    def run(self) -> SimulationResult:
        """Run the scenario and return the collected metrics."""
        if self._ran:
            raise SimulationError("this cluster already ran; build a new one")
        self._ran = True
        cfg = self.config
        self.gossip.start()
        if self.compaction is not None:
            self.compaction.start()
        if self.gc is not None:
            self.gc.start()
        for generator in self.generators:
            generator.start()

        # Main phase: generators issue operations until duration_ms.
        slice_ms = max(50.0, cfg.window_ms)
        while self.loop.now < cfg.duration_ms:
            self.loop.run(until=self.loop.now + slice_ms)
        # Drain phase: let in-flight operations finish.
        drain_deadline = cfg.duration_ms + cfg.drain_timeout_ms
        while self.pending_operations() > 0 and self.loop.now < drain_deadline:
            self.loop.run(until=self.loop.now + slice_ms)

        duration = self.loop.now
        extra = {
            "config": cfg,
            "generators": len(self.generators),
            "nodes": len(self.nodes),
            "compactions": self.compaction.started if self.compaction else 0,
            "gc_pauses": self.gc.started if self.gc else 0,
            "node_stats": {nid: node.stats() for nid, node in self.nodes.items()},
        }
        result = self.metrics.result(duration_ms=duration, strategy=cfg.strategy, extra=extra)
        self._release()
        return result

    def _release(self) -> None:
        """Unhook what closes the finished cluster into a reference cycle.

        Nodes reach the cluster through their completion handler, and every
        operation or straggling copy still open at a coordinator holds its
        generator's callback while the generator holds the coordinator.
        Unplugging the generators leaves the coordinators' book-keeping as
        the run left it; the gossip, compaction, GC and retry timers go with
        the loop's heap.
        """
        for node in self.nodes.values():
            node.on_complete = None
        for generator in self.generators:
            generator.coordinator = None
        self.loop.release()


def run_cluster(config: ClusterConfig) -> SimulationResult:
    """Convenience helper: build and run a cluster scenario in one call."""
    return CassandraCluster(config).run()
