"""Unit tests for the p99 comparison gate over recorded artifacts.

These build artifact directories with the harness's own writer, so the
CI gate's pass/fail logic is exercised deterministically with no live
cluster involved — exactly the property the smoke job relies on when the
live run is skipped on a flaky runner.
"""

import json

import numpy as np
import pytest

from repro.analysis.histogram import LatencyHistogram
from repro.live.compare import DEFAULT_TOLERANCE, compare_p99, load_trial, main
from repro.live.harness import LiveTrialConfig, build_payload, write_artifacts

_PROVENANCE = {"recorded_at_unix": 0.0, "host": "test", "python": "3.11"}


def _record_trial(directory, *, strategy, latencies_ms, schema=None):
    """Write one artifact directory the way the harness does."""
    config = LiveTrialConfig(strategy=strategy, scenario="slow-node", duration_s=2.0)
    histogram = LatencyHistogram()
    for latency in latencies_ms:
        histogram.record(latency)
    summary = histogram.summarize()
    results = {
        "completed": summary.count,
        "trimmed_count": summary.count,
        "latency_ms": {"count": summary.count, "p99": summary.p99},
        "histogram_digest": histogram.digest(),
    }
    config_payload = config.config_payload()
    if schema is not None:
        config_payload["schema"] = schema
    payload = build_payload(config_payload, results, provenance=_PROVENANCE)
    write_artifacts(directory, payload, histogram)
    return directory


def _latencies(rng, mean_ms, count=400):
    return (mean_ms * rng.standard_exponential(count)).tolist()


@pytest.fixture
def trials(tmp_path):
    rng = np.random.default_rng(2015)
    fast = _record_trial(
        tmp_path / "c3", strategy="c3", latencies_ms=_latencies(rng, 4.0)
    )
    slow = _record_trial(
        tmp_path / "lor", strategy="lor", latencies_ms=_latencies(rng, 12.0)
    )
    return fast, slow


class TestLoadTrial:
    def test_round_trip(self, trials):
        fast, _ = trials
        trial = load_trial(fast)
        assert trial.strategy == "C3"
        assert trial.histogram.count == 400
        assert trial.p99_ms > 0

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trial(tmp_path / "nope")

    def test_tampered_payload_fails_digest_check(self, trials):
        fast, _ = trials
        payload_path = fast / "payload.json"
        payload = json.loads(payload_path.read_text())
        payload["results"]["completed"] += 1
        payload_path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="digest mismatch"):
            load_trial(fast)

    def test_provenance_edits_do_not_break_the_digest(self, trials):
        """Satellite contract: provenance is outside the digest domain."""
        fast, _ = trials
        payload_path = fast / "payload.json"
        payload = json.loads(payload_path.read_text())
        payload["provenance"] = {"recorded_at_unix": 1.7e9, "host": "elsewhere"}
        payload_path.write_text(json.dumps(payload))
        assert load_trial(fast).strategy == "C3"

    def test_empty_histogram_is_rejected(self, tmp_path):
        directory = _record_trial(tmp_path / "empty", strategy="c3", latencies_ms=[])
        with pytest.raises(ValueError, match="empty histogram"):
            load_trial(directory)


class TestCompareP99:
    def test_ordering_holds(self, trials):
        fast, slow = trials
        result = compare_p99(fast, slow)
        assert result.ok
        assert result.candidate_strategy == "C3"
        assert result.baseline_strategy == "LOR"
        assert result.candidate_p99_ms < result.baseline_p99_ms
        assert "holds" in result.describe()

    def test_ordering_violated(self, trials):
        fast, slow = trials
        result = compare_p99(slow, fast)
        assert not result.ok
        assert "VIOLATED" in result.describe()

    def test_tolerance_allows_bounded_excess(self, tmp_path):
        rng = np.random.default_rng(7)
        latencies = _latencies(rng, 5.0)
        a = _record_trial(tmp_path / "a", strategy="c3", latencies_ms=latencies)
        b = _record_trial(
            tmp_path / "b",
            strategy="lor",
            latencies_ms=[x * 0.97 for x in latencies],
        )
        # a's p99 is ~3% above b's: inside the default 10% slack...
        assert compare_p99(a, b, tolerance=DEFAULT_TOLERANCE).ok
        # ...but fails a zero-tolerance gate.
        assert not compare_p99(a, b, tolerance=0.0).ok

    def test_schemas_with_different_latency_origins_are_not_compared(self, trials, tmp_path, capsys):
        fast, slow = trials
        old = _record_trial(
            tmp_path / "v1", strategy="lor", latencies_ms=[5.0] * 50, schema="live-trial-v1"
        )
        assert load_trial(old).schema == "live-trial-v1"  # still loads on its own
        with pytest.raises(ValueError, match="schemas differ"):
            compare_p99(fast, old)
        assert main([str(fast), str(old)]) == 2
        assert "schemas differ" in capsys.readouterr().err
        assert main([str(old), str(old)]) == 0  # same origin on both sides

    def test_negative_tolerance_rejected(self, trials):
        fast, slow = trials
        with pytest.raises(ValueError, match="non-negative"):
            compare_p99(fast, slow, tolerance=-0.1)


class TestMain:
    def test_exit_codes(self, trials, capsys):
        fast, slow = trials
        assert main([str(fast), str(slow)]) == 0
        assert main([str(slow), str(fast)]) == 1
        assert main([str(fast), str(slow / "missing")]) == 2
        out = capsys.readouterr()
        assert "ordering holds" in out.out
        assert "cannot compare" in out.err

    def test_edited_histogram_fails_the_gate(self, trials, capsys):
        """p99 is read from histogram.json, which the payload digest covers
        only through ``results.histogram_digest``: an edited file is refused."""
        fast, slow = trials
        histogram_path = slow / "histogram.json"
        stored = json.loads(histogram_path.read_text())
        bucket = max(stored["buckets"], key=int)
        stored["buckets"][bucket] += 1  # count stays 400: the file still parses
        histogram_path.write_text(json.dumps(stored))
        with pytest.raises(ValueError, match="histogram digest mismatch"):
            load_trial(slow)
        assert main([str(fast), str(slow)]) == 2
        assert "cannot compare" in capsys.readouterr().err
