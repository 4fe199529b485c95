"""The C3-vs-baseline p99 comparison gate over recorded trial artifacts.

The CI ``live-smoke`` job runs one C3 and one LOR trial under the
slow-node scenario and asserts the simulated ordering — C3's p99 at or
below LOR's — holds live.  The comparison itself is pure artifact
arithmetic: :func:`load_trial` reads a trial directory written by
:func:`~repro.live.harness.run_trial` (validating the payload digest
and, against it, the histogram file along the way), :func:`compare_p99`
reports the ordering with a relative tolerance for localhost scheduling
noise.  Because it only touches
recorded files, the gate is unit-testable and deterministic even when
the live run itself is skipped on a flaky runner.

Usable as a module CLI::

    python -m repro.live.compare <c3-trial-dir> <baseline-trial-dir>

exits 0 when the ordering holds, 1 when it is violated, 2 on bad inputs —
which includes a pair recorded under different payload schemas, because
their latencies do not start at the same moment.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..analysis.histogram import LatencyHistogram
from .harness import payload_digest

__all__ = ["ComparisonResult", "compare_p99", "load_trial", "main"]

#: Allowed relative slack on the p99 ordering.  Localhost trials share one
#: kernel scheduler with the harness and each other; a few percent of
#: jitter on a tail statistic is measurement noise, not a strategy effect.
DEFAULT_TOLERANCE = 0.10


@dataclass(frozen=True)
class LoadedTrial:
    """One trial directory, parsed and digest-checked."""

    directory: Path
    payload: dict[str, Any]
    histogram: LatencyHistogram

    @property
    def strategy(self) -> str:
        return str(self.payload["config"]["strategy"])

    @property
    def schema(self) -> str:
        return str(self.payload["config"].get("schema"))

    @property
    def p99_ms(self) -> float:
        return float(self.histogram.quantile(0.99))


@dataclass(frozen=True)
class ComparisonResult:
    """Outcome of one candidate-vs-baseline p99 comparison."""

    candidate_strategy: str
    baseline_strategy: str
    candidate_p99_ms: float
    baseline_p99_ms: float
    tolerance: float
    ok: bool

    def describe(self) -> str:
        verdict = "holds" if self.ok else "VIOLATED"
        return (
            f"{self.candidate_strategy} p99 {self.candidate_p99_ms:.2f} ms vs "
            f"{self.baseline_strategy} p99 {self.baseline_p99_ms:.2f} ms "
            f"(tolerance {self.tolerance:.0%}): ordering {verdict}"
        )


def load_trial(directory: "str | Path") -> LoadedTrial:
    """Read and validate one live-trial artifact directory."""
    path = Path(directory)
    payload_path = path / "payload.json"
    histogram_path = path / "histogram.json"
    if not payload_path.is_file():
        raise FileNotFoundError(f"{payload_path} not found (not a live-trial directory?)")
    if not histogram_path.is_file():
        raise FileNotFoundError(f"{histogram_path} not found (not a live-trial directory?)")
    payload = json.loads(payload_path.read_text(encoding="utf-8"))
    recorded = payload.get("digest")
    recomputed = payload_digest(payload)
    if recorded != recomputed:
        raise ValueError(
            f"payload digest mismatch in {payload_path}: recorded {recorded!r}, "
            f"recomputed {recomputed!r} — artifact edited or corrupted"
        )
    histogram = LatencyHistogram.from_dict(
        json.loads(histogram_path.read_text(encoding="utf-8"))
    )
    # The payload digest covers the histogram only through this field; p99 is
    # read from histogram.json, so the file has to be the one the payload names.
    expected = payload["results"]["histogram_digest"]
    if histogram.digest() != expected:
        raise ValueError(
            f"histogram digest mismatch in {histogram_path}: payload records {expected!r}, "
            f"file holds {histogram.digest()!r} — artifact edited or truncated"
        )
    if histogram.count == 0:
        raise ValueError(f"{histogram_path} holds an empty histogram — trial recorded no latencies")
    return LoadedTrial(directory=path, payload=payload, histogram=histogram)


def compare_p99(
    candidate_dir: "str | Path",
    baseline_dir: "str | Path",
    tolerance: float = DEFAULT_TOLERANCE,
) -> ComparisonResult:
    """Does the candidate's p99 stay at/below the baseline's (with slack)?

    The gate passes when ``candidate_p99 <= baseline_p99 * (1 + tolerance)``.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be non-negative, got {tolerance}")
    candidate = load_trial(candidate_dir)
    baseline = load_trial(baseline_dir)
    if candidate.schema != baseline.schema:
        # Payload schemas differ in where latency starts (v1: at issue, v2:
        # at the intended time); a p99 ordering across the two means nothing.
        raise ValueError(
            f"payload schemas differ: {candidate.directory} is {candidate.schema}, "
            f"{baseline.directory} is {baseline.schema} — re-record both with one version"
        )
    ok = candidate.p99_ms <= baseline.p99_ms * (1.0 + tolerance)
    return ComparisonResult(
        candidate_strategy=candidate.strategy,
        baseline_strategy=baseline.strategy,
        candidate_p99_ms=candidate.p99_ms,
        baseline_p99_ms=baseline.p99_ms,
        tolerance=tolerance,
        ok=ok,
    )


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.live.compare",
        description="Assert the candidate trial's p99 <= the baseline trial's p99.",
    )
    parser.add_argument("candidate", help="candidate trial directory (e.g. the C3 run)")
    parser.add_argument("baseline", help="baseline trial directory (e.g. the LOR run)")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help=f"relative slack on the ordering (default {DEFAULT_TOLERANCE})",
    )
    args = parser.parse_args(argv)
    try:
        result = compare_p99(args.candidate, args.baseline, tolerance=args.tolerance)
    except (OSError, ValueError, KeyError) as error:
        print(f"cannot compare: {error}", file=sys.stderr)
        return 2
    print(result.describe())
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
