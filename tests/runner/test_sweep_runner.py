"""Behavioral tests for the SweepRunner: caching, pooling, aggregation."""

import multiprocessing
import time

import pytest

from repro.runner import SweepResult, SweepRunner, SweepSpec
from repro.runner import runner as runner_module
from repro.simulator import SimulationConfig

#: A grid small enough for the pool path to stay fast on one core.
TINY = SimulationConfig(num_servers=9, num_clients=8, num_requests=200)


def tiny_spec(**overrides) -> SweepSpec:
    params = dict(
        base=TINY,
        grid={"strategy": ("LOR", "RR")},
        seeds=(0, 1),
    )
    params.update(overrides)
    return SweepSpec(**params)


class TestExecution:
    def test_serial_run_produces_one_result_per_trial(self):
        result = SweepRunner(parallel=False).run(tiny_spec())
        assert len(result.trials) == 4
        assert result.executed == 4 and result.cached == 0
        assert [t.seed for t in result.trials] == [0, 1, 0, 1]
        assert {t.strategy for t in result.trials} == {"LOR", "RR"}
        assert all(t.completed_requests == 200 for t in result.trials)
        assert all(not t.from_cache for t in result.trials)

    def test_pool_results_in_spec_order(self):
        serial = SweepRunner(parallel=False).run(tiny_spec())
        pooled = SweepRunner(max_workers=2).run(tiny_spec())
        assert [(t.params, t.seed) for t in pooled.trials] == [
            (t.params, t.seed) for t in serial.trials
        ]

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(max_workers=0)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched trial body reaches pool workers only through fork",
)
class TestPoolFailure:
    def test_failed_trial_stops_the_pool_and_keeps_finished_trials(self, tmp_path, monkeypatch):
        # Seed 0 raises at once; every other trial takes 0.2 s.  Each trial
        # leaves a file when it starts and when it returns.
        real = runner_module.run_simulation

        def trial_body(config):
            (tmp_path / f"started-{config.seed}").touch()
            if config.seed == 0:
                raise ValueError("seed 0 refuses to run")
            time.sleep(0.2)
            result = real(config)
            (tmp_path / f"returned-{config.seed}").touch()
            return result

        monkeypatch.setattr(runner_module, "run_simulation", trial_body)
        spec = SweepSpec(base=TINY, grid={"strategy": ("C3",)}, seeds=range(20))
        runner = SweepRunner(max_workers=2, cache_dir=tmp_path / "cache")
        with pytest.raises(ValueError) as failure:
            runner.run(spec)

        assert type(failure.value) is ValueError
        assert str(failure.value) == "seed 0 refuses to run"

        def seeds(prefix):
            return {int(path.name.split("-")[1]) for path in tmp_path.glob(f"{prefix}-*")}

        # Only the trials a worker already held run after the failure, not
        # the 19 that were queued behind it.
        assert len(seeds("started") - {0}) <= 8
        returned = seeds("returned")
        assert returned
        trials = spec.trials()
        assert {trial.seed for trial in trials if trial.key in runner.cache} == returned


class TestCacheBehavior:
    def test_cache_hit_skips_execution(self, tmp_path):
        runner = SweepRunner(parallel=False, cache_dir=tmp_path)
        first = runner.run(tiny_spec())
        assert (first.executed, first.cached) == (4, 0)
        second = runner.run(tiny_spec())
        assert (second.executed, second.cached) == (0, 4)
        assert all(t.from_cache for t in second.trials)
        assert second.trial_digests() == first.trial_digests()

    def test_spec_change_invalidates_only_affected_trials(self, tmp_path):
        runner = SweepRunner(parallel=False, cache_dir=tmp_path)
        runner.run(tiny_spec())
        # A new seed re-executes exactly the new trials; old seeds are reused.
        grown = runner.run(tiny_spec(seeds=(0, 1, 2)))
        assert (grown.executed, grown.cached) == (2, 4)
        # A base-config change invalidates everything.
        changed = runner.run(tiny_spec(base=TINY.copy(num_requests=201)))
        assert (changed.executed, changed.cached) == (4, 0)

    def test_cache_is_shared_across_runner_instances(self, tmp_path):
        SweepRunner(parallel=False, cache_dir=tmp_path).run(tiny_spec())
        rerun = SweepRunner(max_workers=2, cache_dir=tmp_path).run(tiny_spec())
        assert rerun.executed == 0 and rerun.cached == 4

    def test_no_cache_dir_means_no_reuse(self):
        runner = SweepRunner(parallel=False)
        assert runner.run(tiny_spec()).executed == 4
        assert runner.run(tiny_spec()).executed == 4

    def test_schema_drifted_entry_is_a_miss(self, tmp_path):
        runner = SweepRunner(parallel=False, cache_dir=tmp_path)
        first = runner.run(tiny_spec())
        # Simulate an entry written by an older TrialResult layout.
        stale_key = first.trials[0].key
        payload = runner.cache.get(stale_key)
        payload["renamed_field"] = payload.pop("throughput_rps")
        runner.cache.put(stale_key, payload)
        rerun = runner.run(tiny_spec())
        assert (rerun.executed, rerun.cached) == (1, 3)
        assert rerun.trial_digests() == first.trial_digests()

    def test_float_typed_int_field_still_hits_cache(self, tmp_path):
        # payload_to_config normalizes 8.0 -> 8; the recorded key must stay
        # the one the scheduler looks up, or the cache would never hit.
        spec = tiny_spec(grid={"strategy": ("LOR",), "num_clients": (8.0,)})
        runner = SweepRunner(parallel=False, cache_dir=tmp_path)
        first = runner.run(spec)
        assert first.executed == 2
        assert [t.key for t in first.trials] == [t.key for t in spec.trials()]
        rerun = runner.run(spec)
        assert (rerun.executed, rerun.cached) == (0, 2)


class TestAggregation:
    def test_aggregates_group_by_grid_point_in_order(self):
        result = SweepRunner(parallel=False).run(tiny_spec(seeds=(0, 1, 2)))
        points = result.aggregates()
        assert [p.params["strategy"] for p in points] == ["LOR", "RR"]
        assert all(p.n == 3 and p.seeds == (0, 1, 2) for p in points)
        for point in points:
            p99 = point.metrics["p99"]
            assert p99.n == 3
            assert p99.mean > 0
            assert p99.halfwidth >= 0
            assert p99.lo <= p99.mean <= p99.hi
            assert set(point.metrics) == {"mean", "median", "p95", "p99", "p999", "throughput_rps"}

    def test_single_seed_has_degenerate_interval(self):
        result = SweepRunner(parallel=False).run(tiny_spec(seeds=(0,)))
        for point in result.aggregates():
            assert point.metrics["p99"].halfwidth == 0.0

    def test_save_load_roundtrip(self, tmp_path):
        result = SweepRunner(parallel=False).run(tiny_spec())
        path = result.save(tmp_path / "out" / "sweep.json")
        loaded = SweepResult.load(path)
        assert loaded.spec_key == result.spec_key
        assert loaded.trial_digests() == result.trial_digests()
        assert [p.params for p in loaded.aggregates()] == [p.params for p in result.aggregates()]
