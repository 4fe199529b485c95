"""Failure-path unit tests for the coordinator.

Backfills direct coverage of the paths the happy-path suite never hits:
speculation running out of fresh replicas, timers racing completions, stale
responses for already-completed operations, and multi-copy hedging
(``max_extra > 1``) re-arming its timer.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.coordinator import Coordinator
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.node import ClusterNode
from repro.cluster.ring import TokenRing
from repro.cluster.storage import StorageEngine
from repro.controls.hedging import QuantileHedging
from repro.core.feedback import ServerFeedback
from repro.core.lifecycle import Hedge
from repro.simulator.engine import EventLoop
from repro.simulator.network import ConstantLatency
from repro.simulator.request import Request
from repro.strategies import LeastOutstandingSelector
from repro.workloads.ycsb import Operation


def make_cluster(spec_policy=None, read_repair=0.0, num_nodes=3, slow_nodes=(), slowdown=50.0):
    """A small cluster with one coordinator under test (returns (loop, coord, nodes, metrics, completed))."""
    loop = EventLoop()
    metrics = ClusterMetrics()
    ring = TokenRing(list(range(num_nodes)), replication_factor=min(3, num_nodes))
    completed = []
    nodes = {}
    coordinator_box = []

    def route(request, feedback, service_time):
        loop.schedule(0.1, coordinator_box[0].on_remote_response, request, feedback, service_time)

    for node_id in range(num_nodes):
        storage = StorageEngine(
            cache_hit_probability=0.0, rng=np.random.default_rng(node_id), deterministic=True
        )
        node = ClusterNode(
            loop, node_id, storage, concurrency=4, on_complete=route,
            rng=np.random.default_rng(node_id),
        )
        if node_id in slow_nodes:
            node.set_service_time_multiplier(slowdown)
        nodes[node_id] = node
    coordinator = Coordinator(
        loop=loop,
        node_id=0,
        ring=ring,
        selector=LeastOutstandingSelector(rng=np.random.default_rng(7)),
        nodes=nodes,
        network=ConstantLatency(0.1),
        metrics=metrics,
        read_repair_probability=read_repair,
        speculative_retry=spec_policy,
        rng=np.random.default_rng(9),
    )
    coordinator_box.append(coordinator)

    def execute(key=1, is_read=True):
        op = Operation(key=key, is_read=is_read, record_size=1024)
        return coordinator.execute(op, lambda req, lat: completed.append((req, lat)))

    return loop, coordinator, nodes, metrics, completed, execute


def warmed_policy(max_extra=1, threshold=0.5):
    policy = QuantileHedging(quantile=0.5, max_extra=max_extra, min_samples=5, history=100)
    for _ in range(10):
        policy.record(threshold)
    return policy


class TestSpeculationExhaustsReplicas:
    def test_speculation_with_no_fresh_replica_is_a_safe_noop(self):
        # RF = num_nodes = 2: one primary + one speculative target exhausts
        # the group; a second hedge finds no candidate and must not blow up
        # or issue a copy to an already-used replica.
        loop, coord, nodes, metrics, completed, execute = make_cluster(
            spec_policy=warmed_policy(max_extra=3), num_nodes=2,
            slow_nodes=(0, 1), slowdown=200.0,
        )
        execute(key=1)
        loop.run_until_idle()
        assert len(completed) == 1
        # At most one extra copy exists (the single non-primary replica).
        assert coord.speculations_fired <= 1
        total_received = sum(node.requests_received for node in nodes.values())
        assert total_received == 1 + coord.speculations_fired

    def test_speculative_targets_are_distinct_replicas(self):
        loop, coord, nodes, metrics, completed, execute = make_cluster(
            spec_policy=warmed_policy(max_extra=2), num_nodes=3,
            slow_nodes=(0, 1, 2), slowdown=500.0,
        )
        execute(key=5)
        loop.run_until_idle()
        assert len(completed) == 1
        # max_extra=2 on a 3-replica group: both extras fired, each to a
        # different replica, so every node saw exactly one copy.
        assert coord.speculations_fired == 2
        assert [node.requests_received for node in nodes.values()] == [1, 1, 1]


class TestSpeculationTimerRaces:
    def test_completion_cancels_the_pending_speculation_timer(self):
        # Fast nodes: the read completes long before the (warmed) threshold,
        # and the cancelled timer must not fire a stale speculation.
        loop, coord, nodes, metrics, completed, execute = make_cluster(
            spec_policy=warmed_policy(threshold=10_000.0)
        )
        execute(key=2)
        loop.run_until_idle()
        assert len(completed) == 1
        assert coord.speculations_fired == 0
        assert metrics.speculative_retries == 0

    def test_speculate_on_completed_operation_is_a_noop(self):
        loop, coord, nodes, metrics, completed, execute = make_cluster(
            spec_policy=warmed_policy(threshold=10_000.0)
        )
        request = execute(key=3)
        hedge = coord._pending[request.request_id].hedge
        assert hedge is not None and hedge.timer is not None
        loop.run_until_idle()
        assert len(completed) == 1
        assert hedge.done and hedge.timer is None
        coord._fire_hedge(hedge)  # stale timer replay
        assert coord.speculations_fired == 0

    def test_speculate_on_unknown_operation_is_a_noop(self):
        # A timer that fires for an operation this coordinator no longer
        # holds open: its hedge was closed, so nothing is sent.
        loop, coord, nodes, metrics, completed, execute = make_cluster(
            spec_policy=warmed_policy()
        )
        stray = Hedge(op=None, group=(0, 1, 2), used={0})
        stray.done = True
        coord._fire_hedge(stray)
        loop.run_until_idle()
        assert coord.speculations_fired == 0
        assert sum(node.requests_received for node in nodes.values()) == 0


class TestStaleAndDuplicateResponses:
    def test_response_for_untracked_copy_is_ignored(self):
        loop, coord, nodes, metrics, completed, execute = make_cluster()
        stray = Request.create(client_id=0, replica_group=(0, 1, 2), created_at=0.0)
        stray.mark_dispatched(0.0, 1)
        coord.on_remote_response(stray, ServerFeedback(queue_size=0, service_time=1.0), 1.0)
        assert completed == []
        assert metrics.operations_completed == 0

    def test_read_repair_stragglers_complete_the_operation_once(self):
        loop, coord, nodes, metrics, completed, execute = make_cluster(read_repair=1.0)
        execute(key=4)
        loop.run_until_idle()
        # All three copies answered, the operation completed exactly once.
        assert sum(node.requests_received for node in nodes.values()) == 3
        assert len(completed) == 1
        assert metrics.operations_completed == 1
        assert coord.pending_operations == 0


class TestPolicyGating:
    def test_cold_policy_never_speculates(self):
        policy = QuantileHedging(quantile=0.99, min_samples=50)
        loop, coord, nodes, metrics, completed, execute = make_cluster(
            spec_policy=policy, slow_nodes=(0, 1, 2)
        )
        for key in range(10):
            execute(key=key)
        loop.run_until_idle()
        assert len(completed) == 10
        # 10 < min_samples: the threshold never materialised.
        assert coord.speculations_fired == 0

    def test_writes_never_speculate(self):
        loop, coord, nodes, metrics, completed, execute = make_cluster(
            spec_policy=warmed_policy(), slow_nodes=(0, 1, 2), slowdown=200.0
        )
        execute(key=6, is_read=False)
        loop.run_until_idle()
        assert len(completed) == 1
        assert coord.speculations_fired == 0
