"""Benchmark: process-pool sweep execution vs serial on the same grid.

Runs an identical 3-config × 4-seed grid (the acceptance-criterion shape)
through the sweep runner twice — serially in-process, then through the
process pool — and records both wall-clock times.  On a multi-core machine
the pooled run must not lose to serial; on a single core the pool can only
add process overhead, so the speedup gate is skipped there (the
determinism suite separately guarantees both modes produce byte-identical
results).  The wall-clock gates are enforced in the CI perf job only (see
``wall_clock_gate`` in ``conftest.py``); digest and count asserts always run.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.runner import SweepRunner, SweepSpec, seed_range
from repro.simulator import SimulationConfig

#: 3 grid points × 4 seeds = 12 trials, each a real (small) simulation.
SPEC = SweepSpec(
    base=SimulationConfig(num_servers=9, num_clients=12, num_requests=1_200),
    grid={"strategy": ("C3", "LOR", "RR")},
    seeds=seed_range(4),
)

_CPUS = os.cpu_count() or 1


def test_bench_sweep_parallel_vs_serial(benchmark, wall_clock_gate):
    started = time.perf_counter()
    serial_result = SweepRunner(parallel=False).run(SPEC)
    serial_s = time.perf_counter() - started

    pooled_result = benchmark.pedantic(
        lambda: SweepRunner(max_workers=min(4, max(2, _CPUS))).run(SPEC),
        rounds=1,
        iterations=1,
    )
    pooled_s = benchmark.stats.stats.mean

    assert serial_result.trial_digests() == pooled_result.trial_digests()
    speedup = serial_s / pooled_s if pooled_s > 0 else float("inf")
    benchmark.extra_info["grid"] = SPEC.describe()
    benchmark.extra_info["cpus"] = _CPUS
    benchmark.extra_info["serial_s"] = round(serial_s, 3)
    benchmark.extra_info["parallel_s"] = round(pooled_s, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    print(f"\nsweep {SPEC.describe()}: serial {serial_s:.2f}s, "
          f"pool {pooled_s:.2f}s, speedup {speedup:.2f}x on {_CPUS} CPU(s)")

    if _CPUS < 2:
        pytest.skip("single-CPU machine: a process pool cannot beat serial execution")
    # Multi-core: parallel wall-clock must beat serial (10% slack for pool
    # startup noise on small grids).
    wall_clock_gate("parallel_over_serial", pooled_s / serial_s, below=1.1)


def test_bench_sweep_cached_rerun_is_instant(benchmark, tmp_path, wall_clock_gate):
    runner = SweepRunner(parallel=False, cache_dir=tmp_path)
    first = runner.run(SPEC)
    assert first.executed == SPEC.num_trials

    rerun = benchmark.pedantic(lambda: runner.run(SPEC), rounds=1, iterations=1)
    assert rerun.executed == 0
    assert rerun.cached == SPEC.num_trials
    assert rerun.trial_digests() == first.trial_digests()
    benchmark.extra_info["first_run_s"] = round(first.wall_time_s, 3)
    benchmark.extra_info["cached_rerun_s"] = round(rerun.wall_time_s, 3)
    # Serving 12 trials from cache must be at least 10x faster than running them.
    wall_clock_gate("cached_over_first", rerun.wall_time_s / first.wall_time_s, below=0.1)
