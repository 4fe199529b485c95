"""Benchmark regenerating Figure 13 — sending-rate adaptation trace."""

#: (observer, rate increases, rate decreases, decreases near episodes) at the
#: experiment's defaults (seed 7); the C3 params ride in the strategy spec.
OBSERVER_COUNTS = [
    ["coordinator 0", 87, 18, 7],
    ["coordinator 1", 57, 13, 5],
]


def test_bench_fig13_rate_adaptation(run_experiment_benchmark):
    result = run_experiment_benchmark("fig13")
    observer_rows = [row for row in result.rows if str(row[0]).startswith("coordinator")]
    # Both observers raised and cut their rates, cutting near the episodes too.
    assert [row[:4] for row in observer_rows] == OBSERVER_COUNTS
    assert result.data["result"].backpressure_events == 516
