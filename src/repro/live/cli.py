"""``c3-repro live``: one live trial on localhost server processes, from the command line."""

from __future__ import annotations

import argparse
from dataclasses import fields
from pathlib import Path
from typing import Any, Callable

from ..cli import usage_error
from ..scenarios.cli import parse_scenario_params
from .harness import LIVE_SCENARIOS, LiveTrialConfig, run_trial

#: The ``live`` flags: argparse dest -> (LiveTrialConfig field, type, metavar,
#: help).  Every default is the field's own.
_LIVE_FLAGS: dict[str, tuple[str, Callable[[str], Any], str | None, str]] = {
    "strategy": ("strategy", str, "SPEC", "strategy spec as in simulate (default %(default)s)"),
    "failure_detector": (
        "failure_detector",
        str,
        "SPEC",
        "failure-detector spec (e.g. phi:threshold=8); liveness is phi-driven",
    ),
    "hedging": ("hedging", str, "SPEC", "hedging spec (e.g. hedge:quantile=0.95,max_extra=1)"),
    "scenario": (
        "scenario",
        str,
        "NAME",
        f"live-supported scenario: {', '.join(LIVE_SCENARIOS)} (underscores accepted)",
    ),
    "servers": ("num_servers", int, None, "server processes (default %(default)s)"),
    "replication_factor": ("replication_factor", int, "RF", "replica group size (default %(default)s)"),
    "duration": ("duration_s", float, "SECONDS", "whole trial, warmup included (default %(default)s)"),
    "warmup": ("warmup_s", float, "SECONDS", "leading seconds trimmed (default %(default)s)"),
    "cooldown": ("cooldown_s", float, "SECONDS", "trailing seconds trimmed (default %(default)s)"),
    "rate": (
        "arrival_rate_per_s",
        float,
        "REQ_PER_S",
        "open-loop Poisson arrivals (default %(default)s req/s)",
    ),
    "service_time": (
        "base_service_ms",
        float,
        "MS",
        "mean exponential service time (default %(default)s ms)",
    ),
    "seed": ("seed", int, None, "trial seed (default %(default)s)"),
}
_LIVE_DEFAULTS = {field.name: field.default for field in fields(LiveTrialConfig)}


def live_arguments(parser: argparse.ArgumentParser) -> None:
    for dest, (field, kind, metavar, text) in _LIVE_FLAGS.items():
        flag = "--" + dest.replace("_", "-")
        parser.add_argument(flag, default=_LIVE_DEFAULTS[field], type=kind, metavar=metavar, help=text)
    parser.add_argument(
        "--scenario-param",
        action="append",
        dest="scenario_params",
        metavar="KEY=VALUE",
        help="override one scenario knob; repeatable",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="artifact directory (default: trials/<strategy>-<scenario>-seed<seed>)",
    )


def live_command(args: argparse.Namespace) -> int:
    try:
        config = LiveTrialConfig(
            scenario_params=parse_scenario_params(args.scenario_params),
            **{field: getattr(args, dest) for dest, (field, *_) in _LIVE_FLAGS.items()},
        )
    except (KeyError, ValueError) as error:
        return usage_error(error)
    if args.out is not None:
        out_dir = Path(args.out)
    else:
        slug = config.strategy.split(":", 1)[0].lower()
        out_dir = Path("trials") / f"{slug}-{config.scenario}-seed{config.seed}"
    print(
        f"live trial: {config.strategy} on {config.num_servers} servers, "
        f"scenario {config.scenario}, {config.duration_s:.1f}s at "
        f"{config.arrival_rate_per_s:.0f} req/s (seed {config.seed})"
    )
    result = run_trial(config, out_dir)
    r = result.results
    latency = r["latency_ms"]
    print(
        f"completed {r['completed']}/{r['issued']}, slip p99 {r['slip_ms']['p99']:.2f} ms "
        f"({r['timeouts']} timeouts, {r['rejected']} rejected, "
        f"{r['backpressure']} backpressured); {r['trimmed_count']} in the "
        f"measured window ({r['throughput_rps']:.1f} req/s)"
    )
    print(
        f"latency ms: mean {latency['mean']:.2f}  median {latency['median']:.2f}  "
        f"p95 {latency['p95']:.2f}  p99 {latency['p99']:.2f}  p99.9 {latency['p999']:.2f}"
    )
    print(f"wrote: {result.out_dir}")
    return 0
