#!/usr/bin/env python3
"""How C3 reacts when a replica suddenly degrades (GC pause / compaction).

The scenario behind Figure 13: a small cluster serves a steady read workload
while one tracked node is artificially slowed down three times.  The script
shows (a) how much traffic each strategy keeps sending to the degraded node
during the episodes and (b) the tail latency each strategy achieves.

Run with::

    python examples/gc_pause_adaptation.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis import format_table
from repro.cluster import CassandraCluster, ClusterConfig

#: Strategy label -> spec.  C3 starts from a low per-server rate and relaxes
#: its light-sender guard so that, at this load, its rate limiters bind.
STRATEGIES = {
    "C3": "c3:initial_rate=3.0,rate_min_utilisation=0.15",
    "DS": "DS",
    "LOR": "LOR",
}


def run_with_degraded_node(strategy: str, seed: int = 21) -> dict:
    duration_ms = 3_000.0
    config = ClusterConfig(
        num_nodes=7,
        num_generators=80,
        duration_ms=duration_ms,
        strategy=STRATEGIES[strategy],
        compaction_enabled=False,
        gc_enabled=False,
        seed=seed,
    )
    cluster = CassandraCluster(config)
    tracked = cluster.node_ids[-1]
    tracked_node = cluster.nodes[tracked]

    # Three degradation episodes, like the paper's tc-based latency inflation.
    episodes = [(0.30, 0.45), (0.55, 0.60), (0.70, 0.75)]
    for start, end in episodes:
        cluster.loop.schedule_at(duration_ms * start, tracked_node.set_service_time_multiplier, 6.0)
        cluster.loop.schedule_at(duration_ms * end, tracked_node.set_service_time_multiplier, 1.0)

    result = cluster.run()
    episode_windows = [
        (int(duration_ms * start // 100), int(duration_ms * end // 100)) for start, end in episodes
    ]
    series = result.server_load_series.get(tracked, np.zeros(0, dtype=int))
    in_episode = np.concatenate(
        [series[a : b + 1] for a, b in episode_windows if b < len(series)]
    ) if len(series) else np.zeros(0)
    outside = np.array(
        [v for i, v in enumerate(series) if not any(a <= i <= b for a, b in episode_windows)]
    )
    return {
        "strategy": strategy,
        "p99_ms": result.read_summary.p99,
        "p999_ms": result.read_summary.p999,
        "throughput_ops": result.throughput_rps,
        "tracked_load_normal": float(outside.mean()) if outside.size else 0.0,
        "tracked_load_degraded": float(in_episode.mean()) if in_episode.size else 0.0,
        "backpressure_events": result.backpressure_events,
    }


def main() -> None:
    rows = []
    for strategy in STRATEGIES:
        stats = run_with_degraded_node(strategy)
        rows.append(
            [
                stats["strategy"],
                stats["tracked_load_normal"],
                stats["tracked_load_degraded"],
                stats["p99_ms"],
                stats["p999_ms"],
                stats["throughput_ops"],
                stats["backpressure_events"],
            ]
        )
    print(
        format_table(
            [
                "strategy",
                "tracked-node load (normal, req/100ms)",
                "tracked-node load (degraded)",
                "p99 (ms)",
                "p99.9 (ms)",
                "throughput (ops/s)",
                "backpressure",
            ],
            rows,
            title="Reaction to three degradation episodes on one node (Figure 13 scenario)",
        )
    )
    print()
    print(
        "Expected shape: C3 sheds load from the degraded node during each episode "
        "(lower degraded-window load) and keeps the tail latency lower than DS/LOR, "
        "with its rate controllers applying backpressure when the node recovers."
    )


if __name__ == "__main__":
    main()
