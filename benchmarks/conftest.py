"""Shared helpers for the benchmark harness.

Each benchmark module regenerates one of the paper's tables/figures: it runs
the corresponding experiment once (``benchmark.pedantic`` with a single
round — the experiments are deterministic simulations, not micro-benchmarks),
prints the experiment's report table (run pytest with ``-s`` to see it), and
attaches the headline numbers to ``benchmark.extra_info`` so they are
preserved in the benchmark JSON.

Wall-clock *ratios* (pool vs serial, batched vs object kernel) go through
the ``wall_clock_gate`` fixture: they are enforced only in the CI perf job,
which is the run that passes ``--benchmark-json``.  Everywhere else — tier-1
``pytest -x -q`` on a loaded two-core box — the ratio is only recorded, so
a slow spell of the host cannot stop the run before it reaches ``tests/``.
Behaviour asserts (digest equality, executed/cached counts) stay in the
tests themselves and are unconditional.
"""

from __future__ import annotations

import pytest

from repro.experiments import registry


@pytest.fixture
def run_experiment_benchmark(benchmark):
    """Run one registered experiment under pytest-benchmark and report it."""

    def runner(experiment_id: str, **kwargs):
        fn = registry.get(experiment_id)
        result = benchmark.pedantic(lambda: fn(**kwargs), rounds=1, iterations=1)
        print()
        print(result.to_text())
        benchmark.extra_info["experiment"] = experiment_id
        benchmark.extra_info["title"] = result.title
        benchmark.extra_info["rows"] = [
            [str(cell) for cell in row] for row in result.rows
        ]
        return result

    return runner


@pytest.fixture
def wall_clock_gate(benchmark, request):
    """Record a wall-clock ratio; assert its bound only under ``--benchmark-json``."""
    enforced = bool(request.config.getoption("benchmark_json", default=None))

    def gate(name: str, ratio: float, *, at_least: float | None = None, below: float | None = None):
        benchmark.extra_info[name] = round(ratio, 3)
        if not enforced:
            return
        if at_least is not None:
            assert ratio >= at_least, f"{name} fell to {ratio:.2f} (floor {at_least})"
        if below is not None:
            assert ratio < below, f"{name} rose to {ratio:.2f} (must stay below {below})"

    return gate
