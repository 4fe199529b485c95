"""Shared helper for the figure-regeneration benchmarks.

Each figure / ablation / speculative module runs one experiment once
(deterministic simulations: one ``benchmark.pedantic`` round), prints its
report table (``pytest -s``) and attaches the headline numbers to
``extra_info``, which ``--benchmark-json`` keeps for ``c3-repro report
--bench``.  The ``*_hotpath``, ``sweep`` and ``scale_metrics`` modules take no
fixture: they are behavioural checks at millisecond sizes.  What the code
costs is ``perfbench/``'s to measure; nothing here asserts on wall-clock time.
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
