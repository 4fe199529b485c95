"""Resuming a sweep through the trial cache alone.

The cache is the sweep's only persistent state: every finished trial is
written to it atomically as it completes, so re-running the same spec
against the same cache executes exactly the trials that are missing.
"""

import pytest

from repro.runner import SweepRunner, SweepSpec, seed_range
from repro.simulator import SimulationConfig


def tiny_spec(**overrides) -> SweepSpec:
    params = dict(num_servers=5, num_clients=4, num_requests=80, utilization=0.6)
    params.update(overrides)
    return SweepSpec(
        base=SimulationConfig(**params),
        grid={"strategy": ("C3", "LOR")},
        seeds=seed_range(3),
    )


class TestRunnerIntegration:
    def test_max_trials_caps_executions_and_resume_completes(self, tmp_path):
        spec = tiny_spec()
        runner = SweepRunner(max_workers=1, cache_dir=tmp_path / "cache", parallel=False)

        first = runner.run(spec, max_trials=2)
        assert first.executed == 2 and not first.complete
        assert len(first.trials) == 2 and first.total_trials == 6

        second = runner.run(spec)
        assert second.executed == 4 and second.cached == 2 and second.complete

        third = runner.run(spec)
        assert third.executed == 0 and third.cached == 6
        assert second.digest() == third.digest()

    def test_resumed_digest_matches_uninterrupted_run(self, tmp_path):
        spec = tiny_spec()
        runner = SweepRunner(max_workers=1, cache_dir=tmp_path / "cache", parallel=False)
        runner.run(spec, max_trials=3)
        resumed = runner.run(spec)

        clean = SweepRunner(max_workers=1, cache_dir=tmp_path / "other", parallel=False).run(spec)
        assert resumed.digest() == clean.digest()

    def test_negative_max_trials_is_rejected(self, tmp_path):
        runner = SweepRunner(max_workers=1, parallel=False)
        with pytest.raises(ValueError, match="max_trials must be >= 0"):
            runner.run(tiny_spec(), max_trials=-1)

    def test_wiped_cache_reexecutes_everything_with_an_equal_digest(self, tmp_path):
        spec = tiny_spec()
        cache_dir = tmp_path / "cache"
        runner = SweepRunner(max_workers=1, cache_dir=cache_dir, parallel=False)
        baseline = runner.run(spec)
        assert runner.cache.clear() == 6
        rerun = runner.run(spec)
        assert rerun.executed == 6 and rerun.cached == 0
        assert rerun.digest() == baseline.digest()
