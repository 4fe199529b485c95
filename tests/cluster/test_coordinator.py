"""Unit tests for the coordinator (read/write path, read repair, speculation)."""

import numpy as np
import pytest

from repro.cluster.coordinator import Coordinator
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.node import ClusterNode
from repro.cluster.ring import TokenRing
from repro.cluster.storage import StorageEngine
from repro.controls.hedging import QuantileHedging
from repro.core.config import C3Config
from repro.core.scheduler import C3Scheduler
from repro.simulator.engine import EventLoop
from repro.simulator.network import ConstantLatency
from repro.strategies import LeastOutstandingSelector
from repro.workloads.ycsb import Operation


class MiniCluster:
    """A three-node cluster with a single coordinator under test."""

    def __init__(self, selector=None, read_repair=0.0, spec_policy=None, num_nodes=3, slow_nodes=()):
        self.loop = EventLoop()
        self.metrics = ClusterMetrics()
        self.ring = TokenRing(list(range(num_nodes)), replication_factor=min(3, num_nodes))
        self.nodes = {}
        for node_id in range(num_nodes):
            storage = StorageEngine(
                cache_hit_probability=0.0, rng=np.random.default_rng(node_id), deterministic=True
            )
            node = ClusterNode(
                self.loop, node_id, storage, concurrency=4, on_complete=self._route,
                rng=np.random.default_rng(node_id),
            )
            if node_id in slow_nodes:
                node.set_service_time_multiplier(10.0)
            self.nodes[node_id] = node
        self.coordinator = Coordinator(
            loop=self.loop,
            node_id=0,
            ring=self.ring,
            selector=selector or LeastOutstandingSelector(rng=np.random.default_rng(7)),
            nodes=self.nodes,
            network=ConstantLatency(0.1),
            metrics=self.metrics,
            read_repair_probability=read_repair,
            speculative_retry=spec_policy,
            rng=np.random.default_rng(9),
        )
        self.completed = []

    def _route(self, request, feedback, service_time):
        self.loop.schedule(0.1, self.coordinator.on_remote_response, request, feedback, service_time)

    def execute(self, key=1, is_read=True, record_size=1024, group_label="g"):
        op = Operation(key=key, is_read=is_read, record_size=record_size)
        return self.coordinator.execute(op, lambda req, lat: self.completed.append((req, lat)), group_label)


class TestReadPath:
    def test_read_completes_and_records_metrics(self):
        cluster = MiniCluster()
        request = cluster.execute(key=5)
        cluster.loop.run_until_idle()
        assert len(cluster.completed) == 1
        assert cluster.metrics.operations_completed == 1
        assert cluster.metrics.operations_issued == 1
        assert request.server_id in request.replica_group

    def test_latency_includes_network_and_service(self):
        cluster = MiniCluster()
        cluster.execute()
        cluster.loop.run_until_idle()
        _, latency = cluster.completed[0]
        assert latency > 0.2  # at least the two network hops

    def test_group_label_propagates_to_samples(self):
        cluster = MiniCluster()
        cluster.execute(group_label="readers")
        cluster.loop.run_until_idle()
        assert cluster.metrics.samples[0].group == "readers"

    def test_multiple_reads_all_complete(self):
        cluster = MiniCluster()
        for key in range(20):
            cluster.execute(key=key)
        cluster.loop.run_until_idle()
        assert len(cluster.completed) == 20
        assert cluster.coordinator.pending_operations == 0


class TestReadRepair:
    def test_read_repair_fans_out_to_all_replicas(self):
        cluster = MiniCluster(read_repair=1.0)
        cluster.execute(key=3)
        cluster.loop.run_until_idle()
        total_received = sum(node.requests_received for node in cluster.nodes.values())
        assert total_received == 3  # RF copies
        assert cluster.metrics.read_repairs == 2
        assert cluster.metrics.operations_completed == 1

    def test_no_read_repair_for_writes(self):
        cluster = MiniCluster(read_repair=1.0)
        cluster.execute(key=3, is_read=False)
        cluster.loop.run_until_idle()
        assert cluster.metrics.read_repairs == 0


class TestWritePath:
    def test_write_replicated_to_all_replicas(self):
        cluster = MiniCluster()
        cluster.execute(key=7, is_read=False)
        cluster.loop.run_until_idle()
        total_received = sum(node.requests_received for node in cluster.nodes.values())
        assert total_received == 3
        assert cluster.metrics.operations_completed == 1
        # One primary + RF-1 replica copies.
        assert cluster.metrics.copies_issued == 2

    def test_write_latency_is_first_ack(self):
        cluster = MiniCluster()
        cluster.execute(key=7, is_read=False)
        cluster.loop.run_until_idle()
        _, latency = cluster.completed[0]
        write_service = cluster.nodes[0].storage.disk.profile.write_ms
        assert latency < 10 * write_service + 1.0


class TestSpeculativeRetry:
    def test_policy_threshold_warms_up(self):
        policy = QuantileHedging(quantile=0.99, min_samples=5)
        assert policy.threshold_ms() is None
        for latency in (1.0, 2.0, 3.0, 4.0, 100.0):
            policy.record(latency)
        assert policy.threshold_ms() is not None
        assert policy.threshold_ms() > 4.0

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            QuantileHedging(quantile=0.0)
        with pytest.raises(ValueError):
            QuantileHedging(min_samples=10, history=5)

    def test_speculation_fires_against_slow_replica(self):
        policy = QuantileHedging(quantile=0.5, min_samples=5)
        for latency in (1.0, 1.0, 1.0, 1.0, 1.0):
            policy.record(latency)
        # Node 1 and 2 are extremely slow; reads that land there trigger
        # speculation to another replica.
        cluster = MiniCluster(spec_policy=policy, slow_nodes=(1, 2))
        for key in range(30):
            cluster.execute(key=key)
        cluster.loop.run_until_idle()
        assert len(cluster.completed) == 30
        assert cluster.coordinator.speculations_fired > 0
        assert cluster.metrics.speculative_retries == cluster.coordinator.speculations_fired


class TestCopyIndex:
    def test_copy_entry_is_dropped_with_its_response(self):
        cluster = MiniCluster()
        cluster.execute(key=1, is_read=False)
        index = cluster.coordinator._pending_by_copy
        assert len(index) == 3  # the write and its two replica copies
        cluster.loop.run(max_events=3 + 3 + 1)  # three enqueues, three finishes, first ack
        assert len(cluster.completed) == 1
        # The operation is complete, yet its two stragglers are still known.
        assert cluster.coordinator.pending_operations == 0
        assert len(index) == 2
        cluster.loop.run_until_idle()
        assert index == {}
        assert len(cluster.completed) == 1

    def test_losing_speculative_copy_is_dropped_when_it_answers(self):
        policy = QuantileHedging(quantile=0.5, min_samples=5)
        for _ in range(5):
            policy.record(1.0)
        cluster = MiniCluster(spec_policy=policy, slow_nodes=(1, 2))
        for key in range(30):
            cluster.execute(key=key)
        cluster.loop.run_until_idle()
        assert cluster.coordinator.speculations_fired > 0
        assert cluster.coordinator._pending == {}
        assert cluster.coordinator._pending_by_copy == {}


class TestBackpressurePath:
    def test_backpressured_reads_complete_via_retry(self):
        config = C3Config(initial_rate=1.0, rate_delta_ms=10.0)
        cluster = MiniCluster(selector=C3Scheduler(config))
        for key in range(12):
            cluster.execute(key=key)
        cluster.loop.run_until_idle()
        assert len(cluster.completed) == 12
        assert cluster.metrics.backpressure_events > 0
        assert cluster.coordinator.pending_operations == 0

    def test_stats_shape(self):
        cluster = MiniCluster()
        cluster.execute()
        cluster.loop.run_until_idle()
        stats = cluster.coordinator.stats()
        assert stats["operations"] == 1 and stats["reads"] == 1
        assert "selector" in stats
