"""Metric collection for simulation runs.

The collector gathers per-request latencies, per-server windowed load counts
(requests served per 100 ms window — the measurement underlying Figures 2, 8
and 9), throughput, and backpressure counters, and produces the summary
statistics reported throughout the paper (mean, median, 95th, 99th, 99.9th
percentiles).

Two metric modes exist (``SimulationConfig.metrics_mode``):

* ``"exact"`` (the default) appends every completed request's latency to a
  list, exactly as the original collector did — summaries are exact and
  the result digest is byte-identical to the pre-streaming implementation,
  so every pinned golden digest is unchanged.
* ``"streaming"`` records latencies into fixed-memory log-bucketed
  histograms (:class:`~repro.analysis.histogram.LatencyHistogram`) instead
  of lists: memory is O(buckets) regardless of horizon, p50–p99.9 are
  within the histogram's relative-error bound of exact, and the result
  carries its own deterministic digest (distinct from exact mode's).
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from ..analysis.histogram import LatencyHistogram
from ..analysis.percentiles import EMPTY_SUMMARY, LatencySummary, summarize
from .request import Request, RequestKind

__all__ = ["METRICS_MODES", "WindowedCounter", "MetricsCollector", "SimulationResult"]

#: Valid values of ``SimulationConfig.metrics_mode``.
METRICS_MODES = ("exact", "streaming")


class WindowedCounter:
    """Counts events in fixed-size time windows (default 100 ms)."""

    def __init__(self, window_ms: float = 100.0) -> None:
        if window_ms <= 0:
            raise ValueError("window_ms must be positive")
        self.window_ms = float(window_ms)
        self._counts: dict[int, int] = defaultdict(int)

    def record(self, time_ms: float, count: int = 1) -> None:
        """Record ``count`` events at ``time_ms``."""
        if time_ms < 0:
            raise ValueError("time_ms must be non-negative")
        self._counts[int(time_ms // self.window_ms)] += count

    def counts(self, horizon_ms: float | None = None) -> np.ndarray:
        """Dense per-window counts from window 0 to the last observed window.

        ``horizon_ms`` extends the series with trailing zero windows up to the
        given time, which keeps series from different runs comparable.
        """
        if not self._counts and horizon_ms is None:
            return np.zeros(0, dtype=int)
        last = max(self._counts) if self._counts else -1
        if horizon_ms is not None:
            last = max(last, int(horizon_ms // self.window_ms) - 1)
        dense = np.zeros(last + 1, dtype=int)
        if self._counts:
            # Vectorized scatter: the sparse dict only holds windows that saw
            # events, so materialization cost is O(nonzero) + one allocation
            # instead of a Python loop over the whole horizon.
            windows = np.fromiter(self._counts.keys(), dtype=np.int64, count=len(self._counts))
            values = np.fromiter(self._counts.values(), dtype=np.int64, count=len(self._counts))
            in_range = windows <= last
            dense[windows[in_range]] = values[in_range]
        return dense

    def series(self, horizon_ms: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """``(window_start_times, counts)`` arrays."""
        counts = self.counts(horizon_ms)
        times = np.arange(len(counts)) * self.window_ms
        return times, counts

    def total(self) -> int:
        """Total events recorded."""
        return int(sum(self._counts.values()))


@dataclass
class SimulationResult:
    """The outcome of a simulation run.

    Only completed, non-duplicate data requests contribute to the latency
    distribution (read-repair and speculative duplicates add load but are not
    user-visible completions), matching how the paper measures latency.
    """

    latencies_ms: np.ndarray
    read_latencies_ms: np.ndarray
    write_latencies_ms: np.ndarray
    duration_ms: float
    completed_requests: int
    issued_requests: int
    duplicate_requests: int
    backpressure_events: int
    server_load_series: dict[Hashable, np.ndarray]
    window_ms: float
    per_server_completed: dict[Hashable, int]
    strategy: str = ""
    extra: dict = field(default_factory=dict)
    metrics_mode: str = "exact"
    latency_histogram: LatencyHistogram | None = None
    read_latency_histogram: LatencyHistogram | None = None
    write_latency_histogram: LatencyHistogram | None = None

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second over the run."""
        if self.duration_ms <= 0:
            return 0.0
        return self.completed_requests / (self.duration_ms / 1000.0)

    @property
    def summary(self) -> LatencySummary:
        """Latency summary over all completed data requests.

        Exact in ``exact`` mode; within the histogram's relative-error
        bound in ``streaming`` mode.
        """
        if self.metrics_mode == "streaming":
            if self.latency_histogram is None:
                return EMPTY_SUMMARY
            return self.latency_histogram.summarize()
        return summarize(self.latencies_ms)

    @property
    def read_summary(self) -> LatencySummary:
        """Latency summary over completed reads only."""
        if self.metrics_mode == "streaming":
            if self.read_latency_histogram is None:
                return EMPTY_SUMMARY
            return self.read_latency_histogram.summarize()
        return summarize(self.read_latencies_ms)

    def digest(self) -> str:
        """A content hash over everything the simulation measured.

        Two runs of the same configuration and seed must produce the same
        digest — this is what the determinism regression suite asserts, and
        what the sweep runner records so serial and process-pool execution
        can be compared byte-for-byte without shipping raw latency arrays
        around.  The ``extra`` dict is deliberately excluded: it carries
        run metadata (config object, host details), not measurements.

        Exact mode hashes the raw latency arrays and dense load series —
        byte-identical to the pre-streaming implementation, so pinned golden
        digests are stable.  Streaming mode hashes the histogram states and
        the load series in *sparse* form under a distinct domain prefix:
        the hash input is O(buckets + nonzero windows) — latency-array-free
        — and can never collide with an exact-mode digest of the same run.
        (The load series themselves are still materialized densely, one
        entry per ``window_ms`` of horizon; that is O(duration), independent
        of request count.)
        """
        if self.metrics_mode == "streaming":
            return self._streaming_digest()
        h = hashlib.sha256()
        for arr in (self.latencies_ms, self.read_latencies_ms, self.write_latencies_ms):
            h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
        h.update(self._counter_fingerprint())
        for sid in sorted(self.server_load_series, key=repr):
            h.update(repr(sid).encode())
            h.update(np.ascontiguousarray(self.server_load_series[sid]).tobytes())
        h.update(repr(sorted(self.per_server_completed.items(), key=lambda kv: repr(kv[0]))).encode())
        return h.hexdigest()

    def _counter_fingerprint(self) -> bytes:
        """The scalar-counter portion shared by both digest flavors."""
        return repr(
            (
                round(self.duration_ms, 9),
                self.completed_requests,
                self.issued_requests,
                self.duplicate_requests,
                self.backpressure_events,
                self.window_ms,
                self.strategy,
            )
        ).encode()

    def _streaming_digest(self) -> str:
        h = hashlib.sha256(b"streaming-metrics-v1")
        for hist in (self.latency_histogram, self.read_latency_histogram, self.write_latency_histogram):
            h.update(hist.digest().encode() if hist is not None else b"-")
        h.update(self._counter_fingerprint())
        for sid in sorted(self.server_load_series, key=repr):
            h.update(repr(sid).encode())
            series = np.ascontiguousarray(self.server_load_series[sid])
            nonzero = np.flatnonzero(series)
            h.update(nonzero.tobytes())
            h.update(series[nonzero].tobytes())
        h.update(repr(sorted(self.per_server_completed.items(), key=lambda kv: repr(kv[0]))).encode())
        return h.hexdigest()

    def hottest_server(self) -> Hashable | None:
        """The server that completed the most requests (Fig. 8/9 subject)."""
        if not self.per_server_completed:
            return None
        return max(self.per_server_completed, key=lambda sid: self.per_server_completed[sid])

    def hottest_server_series(self) -> np.ndarray:
        """Windowed load series of the hottest server."""
        hottest = self.hottest_server()
        if hottest is None:
            return np.zeros(0, dtype=int)
        return self.server_load_series.get(hottest, np.zeros(0, dtype=int))


class MetricsCollector:
    """Accumulates request completions and server load during a run.

    ``metrics_mode="exact"`` keeps per-request latency lists (O(requests)
    memory, exact summaries); ``metrics_mode="streaming"`` keeps
    log-bucketed histograms instead (O(buckets) memory — the latency lists
    are not even allocated).
    """

    def __init__(
        self,
        window_ms: float = 100.0,
        metrics_mode: str = "exact",
        histogram_relative_error: float = 0.01,
    ) -> None:
        if metrics_mode not in METRICS_MODES:
            raise ValueError(
                f"unknown metrics_mode {metrics_mode!r}; choose one of {METRICS_MODES}"
            )
        self.window_ms = float(window_ms)
        self.metrics_mode = metrics_mode
        self.histogram_relative_error = float(histogram_relative_error)
        self._latencies: list[float] | None = None
        self._read_latencies: list[float] | None = None
        self._write_latencies: list[float] | None = None
        self._histogram: LatencyHistogram | None = None
        self._read_histogram: LatencyHistogram | None = None
        self._write_histogram: LatencyHistogram | None = None
        if metrics_mode == "streaming":
            self._histogram = LatencyHistogram(histogram_relative_error)
            self._read_histogram = LatencyHistogram(histogram_relative_error)
            self._write_histogram = LatencyHistogram(histogram_relative_error)
        else:
            self._latencies = []
            self._read_latencies = []
            self._write_latencies = []
        self._per_server_windows: dict[Hashable, WindowedCounter] = {}
        self._per_server_completed: dict[Hashable, int] = defaultdict(int)
        self.issued_requests = 0
        self.duplicate_requests = 0
        self.completed_requests = 0
        self.backpressure_events = 0

    def on_issue(self, request: Request) -> None:
        """Record that a request entered the system."""
        if request.is_duplicate:
            self.duplicate_requests += 1
        else:
            self.issued_requests += 1

    def on_backpressure(self) -> None:
        """Record one backpressure (backlog-enqueue) event."""
        self.backpressure_events += 1

    def on_complete(self, request: Request, now: float) -> None:
        """Record a completed request and its server-side load contribution.

        This is the non-hedged fast path: the serving replica answered and
        the client-visible completion happened at the same instant, so both
        sides are recorded together.  Hedged completions split the two —
        :meth:`on_server_complete` when a server actually responds (winner,
        straggler, or duplicate alike) and :meth:`on_client_complete` once
        at first-response-wins time.
        """
        self.on_server_complete(request, now)
        self.on_client_complete(request)

    def on_server_complete(self, request: Request, now: float) -> None:
        """Credit the serving server one windowed-load completion at ``now``."""
        if request.server_id is not None:
            self.credit_server(request.server_id, now)

    def credit_server(self, server_id: Hashable, now: float) -> None:
        """One completion by ``server_id`` at ``now``, in its load series and
        its total; a server's series starts at its first completion."""
        counter = self._per_server_windows.get(server_id)
        if counter is None:
            counter = self._per_server_windows[server_id] = WindowedCounter(self.window_ms)
        counter.record(now)
        self._per_server_completed[server_id] += 1

    def on_client_complete(self, request: Request) -> None:
        """Record the client-visible completion latency (no server credit).

        Duplicates (read repair, speculative copies) never enter the latency
        distribution; incomplete requests are ignored.
        """
        if request.is_duplicate:
            return
        latency = request.latency
        if latency is None:
            return
        self.completed_requests += 1
        if self.metrics_mode == "streaming":
            assert self._histogram is not None  # streaming mode always allocates
            assert self._read_histogram is not None and self._write_histogram is not None
            self._histogram.record(latency)
            if request.kind == RequestKind.WRITE:
                self._write_histogram.record(latency)
            else:
                self._read_histogram.record(latency)
        else:
            assert self._latencies is not None  # exact mode always allocates
            assert self._read_latencies is not None and self._write_latencies is not None
            self._latencies.append(latency)
            if request.kind == RequestKind.WRITE:
                self._write_latencies.append(latency)
            else:
                self._read_latencies.append(latency)

    def result(self, duration_ms: float, strategy: str = "", extra: dict | None = None) -> SimulationResult:
        """Freeze the collected metrics into a :class:`SimulationResult`."""
        return SimulationResult(
            latencies_ms=np.asarray(self._latencies or (), dtype=float),
            read_latencies_ms=np.asarray(self._read_latencies or (), dtype=float),
            write_latencies_ms=np.asarray(self._write_latencies or (), dtype=float),
            duration_ms=float(duration_ms),
            completed_requests=self.completed_requests,
            issued_requests=self.issued_requests,
            duplicate_requests=self.duplicate_requests,
            backpressure_events=self.backpressure_events,
            server_load_series={
                sid: counter.counts(duration_ms) for sid, counter in self._per_server_windows.items()
            },
            window_ms=self.window_ms,
            per_server_completed=dict(self._per_server_completed),
            strategy=strategy,
            extra=dict(extra or {}),
            metrics_mode=self.metrics_mode,
            latency_histogram=self._histogram,
            read_latency_histogram=self._read_histogram,
            write_latency_histogram=self._write_histogram,
        )
