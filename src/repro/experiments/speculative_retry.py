"""§5 "Comparison against request reissues" — speculative retries under DS.

Cassandra can reissue a read to another replica after waiting for the 99th
percentile latency.  The paper found that enabling this on top of Dynamic
Snitching *degraded* latencies (up to 5× at p99): with response times already
highly variable, coordinators speculate too often, adding load to already
stressed disks.  The experiment compares DS, DS + speculative retry, and C3.
"""

from __future__ import annotations

from .base import ExperimentResult, registry
from .common import ClusterScale, run_single_cluster

__all__ = ["run"]


@registry.register("speculative", "Speculative retries on top of DS vs C3 (§5)")
def run(
    workload_mix: str = "read_heavy",
    retry_percentile: float = 99.0,
    hedging: str | None = None,
    scale: ClusterScale | None = None,
) -> ExperimentResult:
    """Reproduce the speculative-retry comparison.

    The retry mechanism is a ``hedging`` control spec.  ``retry_percentile``
    (the paper's spelling, and the default) is shorthand for it:
    ``retry_percentile=p`` is ``hedging="hedge:quantile=<p / 100>"``, and
    the controls test suite asserts the two give identical rows.
    """
    scale = scale or ClusterScale()
    if hedging is None:
        hedging = {"name": "hedge", "params": {"quantile": retry_percentile / 100.0}}
    scenarios = [
        ("DS", dict(strategy="DS")),
        ("DS+spec", dict(strategy="DS", hedging=hedging)),
        ("C3", dict(strategy="C3")),
    ]
    rows = []
    data = {}
    for label, overrides in scenarios:
        strategy = overrides.pop("strategy")
        result = run_single_cluster(strategy, workload_mix=workload_mix, scale=scale, **overrides)
        summary = result.read_summary
        rows.append(
            [
                label,
                summary.mean,
                summary.median,
                summary.p99,
                summary.p999,
                result.extra.get("speculative_retries", 0),
                result.throughput_rps,
            ]
        )
        data[label] = result

    notes = [
        "Paper: speculative retries configured at the p99 threshold degraded DS latencies by up to "
        "5x at the 99th percentile because coordinators speculate too many requests when response "
        "times are already highly variable; C3 needs no reissues to improve the tail.",
    ]
    if "DS" in data and "DS+spec" in data:
        base = data["DS"].read_summary.p99
        spec = data["DS+spec"].read_summary.p99
        if base > 0:
            notes.append(f"Reproduced: p99 with speculation is {spec / base:.2f}x the DS baseline.")
    return ExperimentResult(
        experiment_id="speculative",
        title="Effect of p99 speculative retries on top of Dynamic Snitching",
        headers=["configuration", "mean", "median", "p99", "p99.9", "retries fired", "throughput (ops/s)"],
        rows=rows,
        notes=notes,
        data=data,
    )
