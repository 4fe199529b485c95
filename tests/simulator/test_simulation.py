"""Integration-level tests for the flat simulation assembly."""

import pytest

from repro.simulator import DemandSkew, SimulationConfig, run_simulation
from repro.simulator.simulation import ReplicaSelectionSimulation

FAST = dict(num_servers=9, num_clients=12, num_requests=600, seed=2)


class TestSimulationConfig:
    def test_capacity_and_arrival_rate(self):
        config = SimulationConfig(
            num_servers=10,
            mean_service_time_ms=4.0,
            server_concurrency=4,
            utilization=0.5,
            fluctuation_multiplier=3.0,
        )
        # capacity = 10 servers * 4 slots * (1/4 ms) * 2 (mean rate factor)
        assert config.system_capacity_per_ms == pytest.approx(20.0)
        assert config.target_arrival_rate_per_ms == pytest.approx(10.0)

    def test_no_fluctuation_rate_factor(self):
        config = SimulationConfig(fluctuation_enabled=False)
        assert config.effective_rate_multiplier == 1.0

    def test_copy_with_overrides(self):
        config = SimulationConfig().copy(strategy="LOR", seed=9)
        assert config.strategy == "LOR" and config.seed == 9

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(num_servers=2, replication_factor=3)
        with pytest.raises(ValueError):
            SimulationConfig(utilization=0.0)
        with pytest.raises(ValueError):
            SimulationConfig(num_clients=0)


class TestRunSimulation:
    @pytest.mark.parametrize("strategy", ["C3", "LOR", "RR", "ORA", "RAND", "P2C"])
    def test_every_strategy_completes_all_requests(self, strategy):
        config = SimulationConfig(strategy=strategy, **FAST)
        result = run_simulation(config)
        assert result.completed_requests == FAST["num_requests"]
        assert result.summary.count == FAST["num_requests"]
        assert result.summary.p999 >= result.summary.median > 0

    def test_same_seed_reproduces_latencies(self):
        a = run_simulation(SimulationConfig(strategy="C3", **FAST))
        b = run_simulation(SimulationConfig(strategy="C3", **FAST))
        assert a.summary.mean == pytest.approx(b.summary.mean)
        assert a.completed_requests == b.completed_requests

    def test_different_seeds_differ(self):
        a = run_simulation(SimulationConfig(strategy="LOR", **FAST))
        b = run_simulation(SimulationConfig(strategy="LOR", **{**FAST, "seed": 99}))
        assert a.summary.mean != pytest.approx(b.summary.mean)

    def test_server_load_is_tracked(self):
        result = run_simulation(SimulationConfig(strategy="LOR", **FAST))
        assert len(result.per_server_completed) > 0
        assert sum(result.per_server_completed.values()) >= result.completed_requests

    def test_read_repair_generates_duplicates(self):
        config = SimulationConfig(strategy="LOR", read_repair_probability=0.5, **FAST)
        result = run_simulation(config)
        assert result.duplicate_requests > 0

    def test_zero_read_repair_generates_none(self):
        config = SimulationConfig(strategy="LOR", read_repair_probability=0.0, **FAST)
        assert run_simulation(config).duplicate_requests == 0

    def test_demand_skew_accepted(self):
        config = SimulationConfig(
            strategy="C3", demand_skew=DemandSkew(0.25, 0.8), **FAST
        )
        result = run_simulation(config)
        assert result.completed_requests == FAST["num_requests"]

    def test_oracle_beats_random_on_tail(self):
        """Sanity check of the qualitative ordering the paper relies on."""
        shared = dict(num_servers=12, num_clients=20, num_requests=3000, seed=5, fluctuation_interval_ms=200.0)
        oracle = run_simulation(SimulationConfig(strategy="ORA", **shared))
        random_ = run_simulation(SimulationConfig(strategy="RAND", **shared))
        assert oracle.summary.p99 < random_.summary.p99

    def test_simulation_object_exposes_components(self):
        sim = ReplicaSelectionSimulation(SimulationConfig(strategy="C3", **FAST))
        assert len(sim.servers) == FAST["num_servers"]
        assert len(sim.clients) == FAST["num_clients"]
        assert len(sim.groups) == FAST["num_servers"]
        result = sim.run()
        assert result.strategy == "C3"
        assert result.extra["servers"] == FAST["num_servers"]
