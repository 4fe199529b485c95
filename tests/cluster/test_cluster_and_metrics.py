"""Integration-level tests for the cluster assembly and its metrics."""

import pytest

from repro.cluster import (
    CassandraCluster,
    ClusterConfig,
    ClusterMetrics,
    GeneratorGroup,
    run_cluster,
)

FAST = dict(
    num_nodes=5,
    num_generators=8,
    duration_ms=400.0,
    num_keys=500,
    seed=3,
    compaction_interarrival_ms=5_000.0,
    gc_interarrival_ms=5_000.0,
)


class TestClusterMetrics:
    def test_operation_recording(self):
        metrics = ClusterMetrics(window_ms=100.0)
        metrics.record_issue()
        metrics.record_operation(4.0, True, 50.0, group="g")
        metrics.record_load("n1", 50.0)
        result = metrics.result(duration_ms=100.0, strategy="X")
        assert result.completed_requests == 1
        assert result.read_latencies_ms.tolist() == [4.0]
        assert result.per_server_completed == {"n1": 1}
        assert result.strategy == "X"

    def test_latency_filters(self):
        metrics = ClusterMetrics()
        metrics.record_operation(1.0, True, 10.0, group="a")
        metrics.record_operation(2.0, False, 20.0, group="a")
        metrics.record_operation(3.0, True, 30.0, group="b")
        assert metrics.latencies(reads_only=True).tolist() == [1.0, 3.0]
        assert metrics.latencies(group="a").tolist() == [1.0, 2.0]
        times, values = metrics.latency_series(group="b")
        assert times.tolist() == [30.0] and values.tolist() == [3.0]

    def test_copy_kinds_counted(self):
        metrics = ClusterMetrics()
        metrics.record_copy("read_repair")
        metrics.record_copy("speculative")
        metrics.record_copy("write_replica")
        assert metrics.read_repairs == 1
        assert metrics.speculative_retries == 1
        assert metrics.copies_issued == 3

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            ClusterMetrics().record_operation(-1.0, True, 0.0)


class TestClusterConfig:
    def test_disk_profile_selection(self):
        assert ClusterConfig(disk="hdd").disk_profile.name == "hdd"
        assert ClusterConfig(disk="ssd").disk_profile.name == "ssd"

    def test_default_generator_group(self):
        config = ClusterConfig(num_generators=12, workload_mix="read_only")
        groups = config.groups()
        assert len(groups) == 1
        assert groups[0].count == 12 and groups[0].mix == "read_only"

    def test_explicit_groups_win(self):
        groups = [GeneratorGroup(count=2, mix="read_heavy"), GeneratorGroup(count=3, mix="update_heavy")]
        config = ClusterConfig(generator_groups=groups)
        assert len(config.groups()) == 2

    def test_copy(self):
        config = ClusterConfig().copy(strategy="DS", seed=4)
        assert config.strategy == "DS" and config.seed == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_nodes=2, replication_factor=3)
        with pytest.raises(ValueError):
            ClusterConfig(duration_ms=0.0)
        with pytest.raises(ValueError):
            ClusterConfig(disk="floppy")
        with pytest.raises(ValueError):
            GeneratorGroup(count=0)

    def test_generator_group_label_defaults_to_mix(self):
        assert GeneratorGroup(count=1, mix="read_only").label == "read_only"


class TestCassandraClusterRuns:
    @pytest.mark.parametrize("strategy", ["C3", "DS", "LOR", "RAND"])
    def test_strategies_complete_operations(self, strategy):
        result = run_cluster(ClusterConfig(strategy=strategy, **FAST))
        assert result.completed_requests > 50
        assert result.read_summary.median > 0
        assert result.throughput_rps > 0

    def test_reproducible_with_same_seed(self):
        a = run_cluster(ClusterConfig(strategy="C3", **FAST))
        b = run_cluster(ClusterConfig(strategy="C3", **FAST))
        assert a.completed_requests == b.completed_requests
        assert a.read_summary.mean == pytest.approx(b.read_summary.mean)

    def test_node_count_and_structures(self):
        cluster = CassandraCluster(ClusterConfig(strategy="C3", **FAST))
        assert len(cluster.nodes) == FAST["num_nodes"]
        assert len(cluster.coordinators) == FAST["num_nodes"]
        assert len(cluster.generators) == FAST["num_generators"]
        assert len(cluster.ring) == FAST["num_nodes"]

    def test_generators_bound_round_robin_to_coordinators(self):
        cluster = CassandraCluster(ClusterConfig(strategy="C3", **FAST))
        bound = {g.coordinator.node_id for g in cluster.generators}
        assert len(bound) == min(FAST["num_generators"], FAST["num_nodes"])

    def test_update_heavy_mix_produces_writes(self):
        result = run_cluster(ClusterConfig(strategy="C3", workload_mix="update_heavy", **FAST))
        assert result.write_latencies_ms.size > 0
        assert result.read_latencies_ms.size > 0

    def test_generator_groups_with_staggered_start(self):
        groups = [
            GeneratorGroup(count=4, mix="read_heavy", label="readers"),
            GeneratorGroup(count=4, mix="update_heavy", start_at_ms=200.0, label="updaters"),
        ]
        config = ClusterConfig(strategy="C3", generator_groups=groups, **FAST)
        result = run_cluster(config)
        samples = result.extra["operation_samples"]
        reader_times = [s.completed_at for s in samples if s.group == "readers"]
        updater_times = [s.completed_at for s in samples if s.group == "updaters"]
        assert reader_times and updater_times
        assert min(updater_times) >= 200.0
        assert min(reader_times) < 200.0

    def test_ssd_is_faster_than_hdd(self):
        hdd = run_cluster(ClusterConfig(strategy="C3", disk="hdd", **FAST))
        ssd = run_cluster(ClusterConfig(strategy="C3", disk="ssd", **FAST))
        assert ssd.read_summary.median < hdd.read_summary.median

    def test_node_load_recorded_for_every_node(self):
        result = run_cluster(ClusterConfig(strategy="C3", **FAST))
        assert len(result.per_server_completed) == FAST["num_nodes"]

    def test_speculative_retry_config_enables_policy(self):
        config = ClusterConfig(strategy="DS", hedging="hedge:quantile=0.5", **FAST)
        cluster = CassandraCluster(config)
        assert all(c.hedging is not None for c in cluster.coordinators.values())
        result = cluster.run()
        assert result.completed_requests > 0

    def test_extra_contains_node_stats(self):
        result = run_cluster(ClusterConfig(strategy="C3", **FAST))
        assert len(result.extra["node_stats"]) == FAST["num_nodes"]
        assert result.extra["generators"] == FAST["num_generators"]

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"workload_mix": "update_heavy"},
            {"strategy": "DS", "hedging": "hedge:quantile=0.5"},
        ],
    )
    def test_drained_cluster_retains_no_operation_state(self, overrides):
        """Regression: _pending_by_copy used to keep every copy ever issued."""

        class Drained(CassandraCluster):
            def _release(self):
                # run() ends once every operation has its first response, and
                # releasing the loop drops what is still on the wire; give the
                # stragglers (write replicas, read repairs, losing speculative
                # copies) time to answer first.
                self.loop.run(until=self.loop.now + 10_000.0)
                super()._release()

        cluster = Drained(ClusterConfig(**{"strategy": "C3", **FAST, **overrides}))
        result = cluster.run()
        assert result.completed_requests > 50
        for coordinator in cluster.coordinators.values():
            assert coordinator._pending == {}
            assert coordinator._pending_by_copy == {}
