"""Behavioural checks of the sweep runner: pool == serial, cache serves reruns.

One grid goes through the runner serially, through the process pool and from
a warm cache; every mode must yield the same trial digests
(``tests/runner/test_determinism.py`` and ``test_sweep_runner.py`` hold the
wider matrix).  ``perfbench``'s ``sweep_12x8`` times pool and cache end to end;
the pooled/serial and cached/first ratios have no metric yet (ROADMAP item 1).
"""

from repro.runner import SweepRunner, SweepSpec, seed_range
from repro.simulator import SimulationConfig

#: 3 grid points × 4 seeds = 12 trials, each a real (small) simulation.
SPEC = SweepSpec(
    base=SimulationConfig(num_servers=9, num_clients=12, num_requests=150),
    grid={"strategy": ("C3", "LOR", "RR")},
    seeds=seed_range(4),
)


def test_bench_sweep_parallel_vs_serial():
    serial = SweepRunner(parallel=False).run(SPEC)
    pooled = SweepRunner(max_workers=2).run(SPEC)
    assert serial.trial_digests() == pooled.trial_digests()


def test_bench_sweep_cached_rerun_is_instant(tmp_path):
    runner = SweepRunner(parallel=False, cache_dir=tmp_path)
    first = runner.run(SPEC)
    assert first.executed == SPEC.num_trials
    rerun = runner.run(SPEC)
    assert (rerun.executed, rerun.cached) == (0, SPEC.num_trials)
    assert rerun.trial_digests() == first.trial_digests()
