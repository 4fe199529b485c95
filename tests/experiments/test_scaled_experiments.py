"""Smoke tests of the simulation-backed experiments at tiny scale.

These use aggressively scaled-down parameters so the full test suite remains
fast; the benchmark harness runs the experiments at their (larger) default
scale.
"""

import pytest

from repro.experiments import run_experiment
from repro.experiments.common import ClusterScale

TINY_CLUSTER = ClusterScale(num_nodes=5, num_generators=8, duration_ms=300.0, num_keys=300, seed=1)
TINY_SIM = dict(num_servers=9, num_requests=500, seeds=(0,))


class TestClusterExperimentsTiny:
    def test_fig06_produces_rows_for_each_mix_and_strategy(self):
        result = run_experiment(
            "fig06", strategies=("C3", "DS"), mixes=("read_heavy",), scale=TINY_CLUSTER
        )
        assert len(result.rows) == 2
        assert all(row[2] > 0 for row in result.rows)  # mean latency positive

    def test_fig07_reports_throughput(self):
        result = run_experiment(
            "fig07", strategies=("C3", "DS"), mixes=("read_heavy",), scale=TINY_CLUSTER
        )
        assert all(row[2] > 0 for row in result.rows)

    def test_fig02_reports_oscillation_metrics(self):
        result = run_experiment("fig02", strategies=("DS",), scale=TINY_CLUSTER)
        assert len(result.rows) == 1
        assert result.rows[0][0] == "DS"

    def test_fig08_and_fig09_shapes(self):
        fig08 = run_experiment("fig08", strategies=("C3",), mixes=("read_heavy",), scale=TINY_CLUSTER)
        assert len(fig08.rows) == 1
        fig09 = run_experiment("fig09", strategies=("C3",), scale=TINY_CLUSTER)
        assert len(fig09.rows) == 1

    def test_fig10_degradation_rows(self):
        result = run_experiment(
            "fig10", strategies=("C3",), base_generators=6, load_increase=0.5, scale=TINY_CLUSTER
        )
        assert {row[1] for row in result.rows} == {"mean", "p95", "p99", "p99.9"}

    def test_fig11_reports_before_after(self):
        result = run_experiment(
            "fig11", strategies=("C3",), read_generators=5, joining_generators=3, scale=TINY_CLUSTER
        )
        row = result.row_dicts()[0]
        assert row["median before (ms)"] > 0
        assert row["median after (ms)"] > 0

    def test_fig12_ssd(self):
        result = run_experiment("fig12", strategies=("C3",), generators=8, scale=TINY_CLUSTER)
        assert result.rows[0][1] > 0

    def test_skewed_records(self):
        result = run_experiment("skewed_records", strategies=("C3",), scale=TINY_CLUSTER)
        assert result.rows[0][1] > 0

    def test_speculative_includes_three_configurations(self):
        result = run_experiment("speculative", retry_percentile=90.0, scale=TINY_CLUSTER)
        assert [row[0] for row in result.rows] == ["DS", "DS+spec", "C3"]

    def test_fig13_rate_trace(self):
        result = run_experiment(
            "fig13", num_nodes=5, num_generators=20, duration_ms=800.0, observer_count=1
        )
        assert len(result.rows) == 2  # one observer + the cluster row
        assert result.data["tracked_node"] in range(5)


class TestSimulatorExperimentsTiny:
    def test_fig14_sweep_rows(self):
        result = run_experiment(
            "fig14",
            strategies=("C3", "LOR"),
            intervals_ms=(50.0,),
            utilizations=(0.7,),
            client_counts=(20,),
            num_servers=9,
            num_requests=500,
            seeds=(0,),
        )
        assert len(result.rows) == 2
        assert all(row[5] > 0 for row in result.rows)

    def test_fig15_skew_rows(self):
        result = run_experiment(
            "fig15",
            strategies=("C3", "LOR"),
            skews=(0.2,),
            intervals_ms=(100.0,),
            num_clients=20,
            num_servers=9,
            num_requests=500,
        )
        assert len(result.rows) == 2

    def test_ablation_exponent(self):
        result = run_experiment(
            "ablation_exponent",
            exponents=(1.0, 3.0),
            num_clients=15,
            num_servers=9,
            num_requests=400,
        )
        assert len(result.rows) == 2

    def test_ablation_concurrency(self):
        result = run_experiment(
            "ablation_concurrency", num_clients=15, num_servers=9, num_requests=400
        )
        assert len(result.rows) == 3

    def test_ablation_rate_control(self):
        result = run_experiment(
            "ablation_rate_control", num_clients=15, num_servers=9, num_requests=400
        )
        assert len(result.rows) == 2
        # 15 clients never exhaust a permit here: the two variants are one
        # run, and the result says why instead of printing twin rows silently.
        full, ranking_only = result.rows
        assert full[1:] == ranking_only[1:] and full[-1] == 0
        assert result.notes[0].startswith("Rate control did not engage")

    def test_ablation_rate_control_reports_backpressure_when_it_engages(self):
        result = run_experiment(
            "ablation_rate_control", num_clients=3, num_servers=9, num_requests=400
        )
        full, ranking_only = result.rows
        assert full[-1] > 0 and ranking_only[-1] == 0
        assert full[1:-1] != ranking_only[1:-1]
        assert not any("did not engage" in note for note in result.notes)


class TestScenarioExperimentsTiny:
    def test_gc_storm_reports_baseline_and_storm_rows(self):
        result = run_experiment(
            "gc_storm", strategies=("C3", "LOR"), num_servers=9, num_clients=15,
            num_requests=500,
        )
        scenarios = {row[0] for row in result.rows}
        assert scenarios == {"baseline", "gc-storm"}
        assert len(result.rows) == 4
        # The baseline rows anchor the inflation column at exactly 1.
        for row in result.row_dicts():
            if row["scenario"] == "baseline":
                assert row["p99 vs baseline"] == pytest.approx(1.0)

    def test_gc_storm_accepts_a_scenario_override(self):
        result = run_experiment(
            "gc_storm", scenario="slow-node", strategies=("LOR",), num_servers=9,
            num_clients=15, num_requests=500,
        )
        assert {row[0] for row in result.rows} == {"baseline", "slow-node"}

    def test_baseline_override_degenerates_to_a_single_scenario(self):
        # scenario == reference must not run (and report) baseline twice.
        result = run_experiment(
            "gc_storm", scenario="baseline", strategies=("LOR", "RAND"), num_servers=9,
            num_clients=15, num_requests=400,
        )
        assert len(result.rows) == 2
        assert {row[0] for row in result.rows} == {"baseline"}

    def test_crash_recovery_reports_throughput_retention(self):
        result = run_experiment(
            "crash_recovery", strategies=("C3", "LOR"), num_servers=9, num_clients=15,
            num_requests=500,
        )
        assert len(result.rows) == 4
        for row in result.row_dicts():
            assert row["throughput (req/s)"] > 0
