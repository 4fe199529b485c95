"""Per-trial summaries and their reduction into per-grid-point aggregates.

A :class:`TrialResult` is the JSON-serializable distillation of one
:class:`~repro.simulator.metrics.SimulationResult`: the latency summary, the
throughput, the bookkeeping counters, and a content digest of the full
measurement (so determinism can be asserted across serial and process-pool
execution without shipping latency arrays between processes).

:func:`aggregate_trials` groups replicated trials by grid point and reduces
each metric across seeds into a mean with a confidence interval
(:mod:`repro.analysis.aggregate`).

Streaming-mode trials (``metrics_mode="streaming"``) also carry their
serialized latency histograms; aggregation then *additionally* pools the
replicates by bucket-wise histogram merge, yielding union-of-samples
percentiles per grid point without ever concatenating raw latency arrays —
the scale-mode replacement for mean-of-per-seed-percentiles when a single
pooled distribution is wanted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from ..analysis.aggregate import (
    ConfidenceInterval,
    aggregate_metric_samples,
    pooled_histogram_summary,
)
from .spec import canonical_json

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..simulator.metrics import SimulationResult
    from .spec import TrialSpec

__all__ = ["TrialResult", "GridPointAggregate", "SweepResult", "aggregate_trials"]

#: Metrics reduced across seeds, in report-column order.
AGGREGATE_METRICS = ("mean", "median", "p95", "p99", "p999", "throughput_rps")


@dataclass(frozen=True)
class TrialResult:
    """The persisted summary of one executed trial."""

    params: dict
    seed: int
    strategy: str
    key: str
    summary: dict
    throughput_rps: float
    completed_requests: int
    issued_requests: int
    duplicate_requests: int
    backpressure_events: int
    duration_ms: float
    result_digest: str
    wall_time_s: float
    from_cache: bool = False
    metrics_mode: str = "exact"
    histograms: dict | None = None

    @classmethod
    def from_simulation(
        cls, trial: "TrialSpec", key: str, result: "SimulationResult", wall_time_s: float
    ) -> "TrialResult":
        """Distill a full simulation result into its persisted summary.

        ``key`` is the cache key the trial was scheduled under (``trial.key``
        as the scheduler computed it), so it is not hashed a second time.

        Streaming-mode results keep their latency histograms (serialized,
        JSON-safe) so downstream aggregation can pool replicates by
        bucket-merge; exact-mode results carry none (``histograms=None``).
        """
        histograms = None
        if result.metrics_mode == "streaming" and result.latency_histogram is not None:
            histograms = {
                "all": result.latency_histogram.to_dict(),
                "read": (
                    result.read_latency_histogram.to_dict()
                    if result.read_latency_histogram is not None
                    else None
                ),
                "write": (
                    result.write_latency_histogram.to_dict()
                    if result.write_latency_histogram is not None
                    else None
                ),
            }
        return cls(
            params=dict(trial.params),
            seed=trial.seed,
            strategy=result.strategy or trial.config.strategy,
            key=key,
            summary=result.summary.as_dict(),
            throughput_rps=result.throughput_rps,
            completed_requests=result.completed_requests,
            issued_requests=result.issued_requests,
            duplicate_requests=result.duplicate_requests,
            backpressure_events=result.backpressure_events,
            duration_ms=result.duration_ms,
            result_digest=result.digest(),
            wall_time_s=wall_time_s,
            metrics_mode=result.metrics_mode,
            histograms=histograms,
        )

    def metric(self, name: str) -> float:
        """One aggregatable metric value (summary stat or throughput)."""
        if name == "throughput_rps":
            return float(self.throughput_rps)
        if name == "p999":
            return float(self.summary["p99.9"])
        return float(self.summary[name])

    def to_dict(self) -> dict:
        """JSON-serializable view (``from_cache`` is runtime state, excluded)."""
        return {
            "params": self.params,
            "seed": self.seed,
            "strategy": self.strategy,
            "key": self.key,
            "summary": self.summary,
            "throughput_rps": self.throughput_rps,
            "completed_requests": self.completed_requests,
            "issued_requests": self.issued_requests,
            "duplicate_requests": self.duplicate_requests,
            "backpressure_events": self.backpressure_events,
            "duration_ms": self.duration_ms,
            "result_digest": self.result_digest,
            "wall_time_s": self.wall_time_s,
            "metrics_mode": self.metrics_mode,
            "histograms": self.histograms,
        }

    @classmethod
    def from_dict(cls, payload: dict, from_cache: bool = False) -> "TrialResult":
        """Rebuild from :meth:`to_dict` output (e.g. a cache entry).

        Entries written before streaming mode existed lack the
        ``metrics_mode`` / ``histograms`` keys; they default to exact mode.
        """
        payload = dict(payload)
        payload.setdefault("metrics_mode", "exact")
        payload.setdefault("histograms", None)
        return cls(from_cache=from_cache, **payload)


@dataclass(frozen=True)
class GridPointAggregate:
    """One grid point's metrics reduced across its seed replicates.

    ``pooled`` is the bucket-merged latency summary across the replicates'
    streaming histograms (union-of-samples percentiles at histogram
    resolution); ``None`` for exact-mode trials, which carry no histograms.
    """

    params: dict
    n: int
    seeds: tuple[int, ...]
    metrics: dict[str, ConfidenceInterval]
    pooled: dict | None = None

    def to_dict(self) -> dict:
        return {
            "params": self.params,
            "n": self.n,
            "seeds": list(self.seeds),
            "metrics": {name: ci.as_dict() for name, ci in self.metrics.items()},
            "pooled": self.pooled,
        }


def aggregate_trials(
    trials: Iterable[TrialResult], confidence: float = 0.95
) -> list[GridPointAggregate]:
    """Group trials by grid point and reduce each metric across seeds.

    Grid points appear in first-seen order, which for runner output matches
    the spec's expansion order regardless of parallel completion order.
    """
    groups: dict[str, list[TrialResult]] = {}
    for trial in trials:
        groups.setdefault(canonical_json(trial.params), []).append(trial)
    aggregates = []
    for members in groups.values():
        samples = {name: [t.metric(name) for t in members] for name in AGGREGATE_METRICS}
        payloads = [t.histograms["all"] for t in members if t.histograms is not None]
        pooled = pooled_histogram_summary(payloads) if len(payloads) == len(members) else None
        aggregates.append(
            GridPointAggregate(
                params=dict(members[0].params),
                n=len(members),
                seeds=tuple(t.seed for t in members),
                metrics=aggregate_metric_samples(samples, confidence),
                pooled=pooled,
            )
        )
    return aggregates


@dataclass
class SweepResult:
    """Everything one :class:`~repro.runner.SweepRunner.run` produced.

    ``total_trials`` is the spec's full trial count; a budget-capped
    (``max_trials``) run completes only a subset, leaving ``trials`` shorter
    than ``total_trials`` and :attr:`complete` False.  ``None`` (legacy
    payloads) means "assume complete".
    """

    spec_key: str
    trials: list[TrialResult] = field(default_factory=list)
    executed: int = 0
    cached: int = 0
    wall_time_s: float = 0.0
    total_trials: int | None = None

    @property
    def complete(self) -> bool:
        """Whether every trial of the spec is present."""
        return self.total_trials is None or len(self.trials) == self.total_trials

    def aggregates(self, confidence: float = 0.95) -> list[GridPointAggregate]:
        """Per-grid-point reductions across seeds (spec expansion order)."""
        return aggregate_trials(self.trials, confidence)

    def trial_digests(self) -> list[str]:
        """The measurement digests in expansion order (determinism checks)."""
        return [t.result_digest for t in self.trials]

    def digest(self) -> str:
        """Content hash of the deterministic portion of the result.

        Covers the spec key and, per trial, everything a re-run must
        reproduce: params, seed, cache key, latency summary, counters, and
        the measurement digest.  Excludes wall-clock times and
        executed/cached provenance, so a sweep served from cache — or
        interrupted and resumed across any number of invocations — hashes
        identically to one uninterrupted run of the same spec.
        """
        from .spec import content_hash  # local import to avoid a cycle at load

        stripped = []
        for trial in self.trials:
            payload = trial.to_dict()
            del payload["wall_time_s"]
            stripped.append(payload)
        return content_hash({"spec_key": self.spec_key, "trials": stripped})

    def to_dict(self) -> dict:
        return {
            "spec_key": self.spec_key,
            "executed": self.executed,
            "cached": self.cached,
            "wall_time_s": self.wall_time_s,
            "total_trials": self.total_trials if self.total_trials is not None else len(self.trials),
            "trials": [t.to_dict() for t in self.trials],
            "aggregates": [a.to_dict() for a in self.aggregates()],
        }

    def save(self, path: str | Path) -> Path:
        """Persist the sweep (trials + aggregates) as a JSON document."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True), encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "SweepResult":
        """Rebuild a :class:`SweepResult` from :meth:`save` output."""
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls(
            spec_key=payload["spec_key"],
            trials=[TrialResult.from_dict(t) for t in payload["trials"]],
            executed=payload["executed"],
            cached=payload["cached"],
            wall_time_s=payload["wall_time_s"],
            total_trials=payload.get("total_trials"),
        )
