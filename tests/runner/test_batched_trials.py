"""The sweep runner executes every trial on the batched kernel.

``execute_trial`` runs a trial as ``kernel="batched"`` whatever its config
says.  That is sound only while the kernel is digest-identical to the object
path on every config a sweep sends it, so these tests hold the runner's own
output to the object path for one config shaped like each ``sweep_flat``
caller, and pin that ``kernel`` is not part of a trial's identity.
"""

from __future__ import annotations

import pytest

from repro.runner import SweepRunner, SweepSpec, config_to_payload, execute_trial
from repro.simulator import DemandSkew, SimulationConfig, run_simulation

SMALL = dict(num_servers=9, num_clients=12, num_requests=800, seed=3)

#: One config per kind of ``sweep_flat`` caller, shrunk to test size.
CALLERS = {
    "fig14-fluctuation": dict(SMALL, strategy="LOR", utilization=0.45, fluctuation_interval_ms=10.0),
    "fig15-demand-skew": dict(
        SMALL,
        strategy="C3",
        demand_skew=DemandSkew(client_fraction=0.2, demand_fraction=0.8),
        fluctuation_interval_ms=500.0,
    ),
    "ablation-c3-params": dict(SMALL, strategy="C3:b=2,w=1,rate_control_enabled=false"),
    "gc-storm": dict(
        SMALL,
        strategy="C3",
        fluctuation_enabled=False,
        scenario="gc-storm",
        scenario_params={"mean_interarrival_ms": 50.0},
    ),
    "crash-recovery": dict(
        SMALL,
        strategy="LOR",
        fluctuation_enabled=False,
        scenario="crash-recovery",
        scenario_params={"first_at_ms": 20.0, "down_ms": 60.0, "stagger_ms": 30.0},
    ),
    "block-streaming": dict(SMALL, strategy="C3", rng="block", metrics_mode="streaming"),
}


def job_for(config: SimulationConfig) -> dict:
    """The wire payload the runner hands a worker for ``config``."""
    trial = SweepSpec(base=config, seeds=(config.seed,)).trials()[0]
    return {
        "index": 0,
        "key": trial.key,
        "params": {},
        "seed": trial.seed,
        "config": config_to_payload(trial.config),
    }


@pytest.mark.parametrize("name", sorted(CALLERS))
def test_trial_digest_matches_the_object_path(name):
    config = SimulationConfig(**CALLERS[name])
    assert config.kernel == "object"
    trial = execute_trial(job_for(config))["trial"]
    assert trial["result_digest"] == run_simulation(config).digest()


def test_kernel_is_not_part_of_a_trials_identity():
    config = SimulationConfig(**SMALL)
    batched = config.copy(kernel="batched")
    assert "kernel" not in config_to_payload(batched)
    assert SweepSpec(base=batched).trials()[0].key == SweepSpec(base=config).trials()[0].key


def test_batched_base_is_served_from_the_default_sweeps_cache(tmp_path):
    base = SimulationConfig(num_servers=9, num_clients=8, num_requests=200)
    grid = {"strategy": ("C3", "LOR")}
    runner = SweepRunner(parallel=False, cache_dir=tmp_path)
    first = runner.run(SweepSpec(base=base, grid=grid, seeds=(0, 1)))
    again = runner.run(SweepSpec(base=base.copy(kernel="batched"), grid=grid, seeds=(0, 1)))
    assert (first.executed, again.executed, again.cached) == (4, 0, 4)
    assert again.digest() == first.digest()
