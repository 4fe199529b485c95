"""Parallel multi-seed sweep runner for the §6 evaluation.

This package is the substrate for scaling the paper's evaluation beyond
one-seed, one-process runs:

* :class:`SweepSpec` — a cartesian parameter grid over
  :class:`~repro.simulator.SimulationConfig` fields, replicated across N
  seeds with deterministic per-trial seeding.
* :class:`SweepRunner` — executes trials through a process pool (or
  serially), with per-trial JSON result caching keyed by a content hash of
  the resolved config: re-running an identical spec is served entirely from
  cache, and changing *any* parameter invalidates exactly the affected
  trials.
* :class:`SweepResult` / :func:`aggregate_trials` — reduce seed replicates
  into per-grid-point means with confidence intervals for mean/median/p95/
  p99/p99.9 latency and throughput.

Worked example — compare three strategies at two utilizations, five seeds
each, in parallel, with a persistent cache::

    from repro.runner import SweepRunner, SweepSpec, seed_range
    from repro.simulator import SimulationConfig

    spec = SweepSpec(
        base=SimulationConfig(num_servers=10, num_clients=40, num_requests=5_000),
        grid={
            "strategy": ("C3", "LOR", "RR"),
            "utilization": (0.45, 0.7),
        },
        seeds=seed_range(5),          # seeds 0..4, same set per grid point
    )
    runner = SweepRunner(max_workers=4, cache_dir="sweep-cache")

    result = runner.run(spec)          # 3 × 2 × 5 = 30 trials, pooled
    assert result.executed == 30 and result.cached == 0

    for point in result.aggregates():  # one row per grid point
        p99 = point.metrics["p99"]     # ConfidenceInterval
        print(point.params["strategy"], point.params["utilization"],
              f"p99 = {p99.mean:.1f} ± {p99.halfwidth:.1f} ms (n={point.n})")

    rerun = runner.run(spec)           # identical spec ⇒ pure cache hits
    assert rerun.executed == 0 and rerun.cached == 30
    assert rerun.trial_digests() == result.trial_digests()

The same machinery backs the ``c3-repro sweep`` CLI command and (via
:func:`repro.experiments.common.sweep_flat`) the multi-seed figure
experiments, so serial, pooled, CLI and experiment execution paths all
produce byte-identical measurements for a given spec.
"""

from .cache import TrialCache
from .results import GridPointAggregate, SweepResult, TrialResult, aggregate_trials
from .runner import SweepRunner, execute_trial
from .search import (
    RungResult,
    SearchResult,
    candidate_digest,
    dense_argmin,
    rung_schedule,
    successive_halving,
)
from .spec import (
    SweepSpec,
    TrialSpec,
    canonical_json,
    config_to_payload,
    content_hash,
    payload_to_config,
    seed_range,
)

__all__ = [
    "GridPointAggregate",
    "RungResult",
    "SearchResult",
    "SweepRunner",
    "SweepResult",
    "SweepSpec",
    "TrialCache",
    "TrialResult",
    "TrialSpec",
    "aggregate_trials",
    "candidate_digest",
    "canonical_json",
    "config_to_payload",
    "content_hash",
    "dense_argmin",
    "execute_trial",
    "payload_to_config",
    "rung_schedule",
    "seed_range",
    "successive_halving",
]
