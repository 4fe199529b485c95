"""Behavioural checks of scale-mode (streaming) metrics.

The streaming collector exists for runs of a million completions and more:
it counts every one in a fixed-size histogram and keeps no per-request list.
``WindowedCounter.counts`` materializes the dense series results are built
from.  ``perfbench`` times the histogram (``analysis.histogram.*_us``) and the
streaming path end to end (``flat_scale``); the million-completion collector
run and ``WindowedCounter.counts`` have no driver yet (ROADMAP item 1).
"""

import numpy as np

from repro.simulator import SimulationConfig, WindowedCounter, run_simulation
from repro.simulator.metrics import MetricsCollector
from repro.simulator.request import Request

N_COMPLETIONS = 2_000


def test_bench_streaming_collector_million_completions():
    collector = MetricsCollector(metrics_mode="streaming")
    latencies = np.random.default_rng(1).exponential(scale=8.0, size=N_COMPLETIONS) + 0.25
    request = Request(request_id=0, client_id=0, replica_group=(0,), created_at=0.0, server_id=0)
    for i, latency in enumerate(latencies.tolist()):
        request.completed_at = latency
        collector.on_complete(request, now=float(i % 1000))
    assert collector.completed_requests == N_COMPLETIONS
    assert collector._latencies is None  # fixed memory: no per-request list
    histogram = collector.result(duration_ms=1_000.0).latency_histogram
    assert histogram is not None and histogram.count == N_COMPLETIONS


def test_bench_streaming_vs_exact_simulation():
    """One real (small) simulation in each mode completes the same requests."""
    config = SimulationConfig(num_servers=9, num_clients=12, num_requests=600, utilization=0.6, seed=0)
    exact = run_simulation(config)
    streaming = run_simulation(config.copy(metrics_mode="streaming"))
    assert streaming.completed_requests == exact.completed_requests


def test_bench_windowed_counter_materialization():
    """Dense-series scatter over a long, sparse horizon (the digest hot path)."""
    counter = WindowedCounter(window_ms=100.0)
    # 500 events scattered over a 10-minute horizon: 6000 windows, sparse.
    for t in np.random.default_rng(3).uniform(0.0, 600_000.0, size=500).tolist():
        counter.record(t)
    assert int(counter.counts(horizon_ms=600_000.0).sum()) == 500
