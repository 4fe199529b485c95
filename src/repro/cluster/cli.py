"""``c3-repro cluster``: one Cassandra-like cluster run with explicit parameters."""

from __future__ import annotations

import argparse

from ..analysis.report import format_table
from ..cli import usage_error
from ..controls.cli import HEDGING_HELP
from ..strategies.cli import STRATEGY_HELP
from .cluster import DISK_PROFILES, ClusterConfig, run_cluster


def cluster_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--strategy", default="C3", help=STRATEGY_HELP)
    parser.add_argument("--hedging", default=None, help=HEDGING_HELP)
    parser.add_argument("--nodes", type=int, default=15)
    parser.add_argument("--generators", type=int, default=60)
    parser.add_argument("--duration", type=float, default=2_000.0, help="duration (ms)")
    parser.add_argument("--mix", default="read_heavy", choices=["read_heavy", "read_only", "update_heavy"])
    parser.add_argument("--disk", default="hdd", choices=list(DISK_PROFILES))
    parser.add_argument("--seed", type=int, default=0)


def cluster_command(args: argparse.Namespace) -> int:
    try:
        config = ClusterConfig(
            num_nodes=args.nodes,
            num_generators=args.generators,
            duration_ms=args.duration,
            workload_mix=args.mix,
            disk=args.disk,
            strategy=args.strategy,
            hedging=args.hedging,
            seed=args.seed,
        )
    except ValueError as error:
        return usage_error(error)
    result = run_cluster(config)
    summary = result.read_summary
    rows = [[config.strategy, args.mix, summary.mean, summary.median, summary.p95, summary.p99, summary.p999,
             result.throughput_rps]]
    headers = ["strategy", "workload", "mean", "median", "p95", "p99", "p99.9", "throughput (ops/s)"]
    print(format_table(headers, rows))
    return 0
