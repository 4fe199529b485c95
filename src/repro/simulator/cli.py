"""``c3-repro simulate`` and ``scale``, and the config flags ``sweep`` and ``search`` share."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from ..analysis.histogram import quantile_within_bound
from ..analysis.report import format_table
from ..cli import usage_error
from ..controls.cli import DETECTOR_HELP, HEDGING_HELP
from ..scenarios.cli import parse_scenario_params
from ..strategies.cli import STRATEGY_HELP
from .metrics import METRICS_MODES
from .simulation import KERNELS, RNGS, SimulationConfig, run_simulation

#: The flat-run flags of ``simulate`` / ``sweep`` / ``search`` / ``scale``:
#: argparse dest -> (SimulationConfig field, ``add_argument`` keywords).  A
#: flag's default is the field's own unless the subcommand overrides it, and
#: the choices are the simulator's tables, so neither is written down here.
_FLAT_FLAGS: dict[str, tuple[str, dict]] = {
    "strategy": ("strategy", {"help": STRATEGY_HELP}),
    "failure_detector": ("failure_detector", {"help": DETECTOR_HELP}),
    "hedging": ("hedging", {"help": HEDGING_HELP}),
    "servers": ("num_servers", {"type": int}),
    "clients": ("num_clients", {"type": int}),
    "requests": ("num_requests", {"type": int, "help": "requests per run"}),
    "utilization": ("utilization", {"type": float}),
    "interval": ("fluctuation_interval_ms", {"type": float, "help": "fluctuation interval (ms)"}),
    "seed": ("seed", {"type": int}),
    "relative_error": (
        "histogram_relative_error",
        {"type": float, "help": "histogram relative-error bound (default: 0.01 = 1%%)"},
    ),
    "metrics_mode": (
        "metrics_mode",
        {
            "choices": list(METRICS_MODES),
            "help": "latency collection: exact per-request lists or fixed-memory streaming histograms",
        },
    ),
    "kernel": (
        "kernel",
        {
            "choices": list(KERNELS),
            "help": "event-loop kernel: the per-event object path or the batched "
                    "typed-event path (identical exact-mode results, several times faster; "
                    "default: %(default)s)",
        },
    ),
    "rng": (
        "rng",
        {
            "choices": list(RNGS),
            "help": "RNG regime: v1 (scalar draws, legacy digests) or block "
                    "(block-drawn variates — faster, kernel-identical, a new digest domain)",
        },
    ),
}
_CONFIG_DEFAULTS = {field.name: field.default for field in fields(SimulationConfig)}


def add_flat_flags(parser: argparse.ArgumentParser, dests: str, **defaults) -> None:
    """Add the named :data:`_FLAT_FLAGS` to ``parser``, in the order given."""
    for dest in dests.split():
        field, keywords = _FLAT_FLAGS[dest]
        flag = "--" + dest.replace("_", "-")
        parser.add_argument(flag, default=defaults.get(dest, _CONFIG_DEFAULTS[field]), **keywords)


def flat_config(args: argparse.Namespace, **overrides) -> SimulationConfig:
    """The :class:`SimulationConfig` a subcommand's parsed flat-run flags describe."""
    chosen = {field: getattr(args, dest) for dest, (field, _) in _FLAT_FLAGS.items() if hasattr(args, dest)}
    return SimulationConfig(**{**chosen, **overrides})


def simulate_arguments(parser: argparse.ArgumentParser) -> None:
    flags = "strategy failure_detector hedging servers clients requests utilization interval seed"
    add_flat_flags(parser, flags, requests=10_000)
    parser.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="named perturbation scenario (see `c3-repro scenarios`)",
    )
    parser.add_argument(
        "--scenario-param", action="append", dest="scenario_params", metavar="KEY=VALUE",
        help="override one scenario knob (repeatable; values parsed as JSON, else string)",
    )
    add_flat_flags(parser, "metrics_mode kernel rng", kernel="batched")


def simulate_command(args: argparse.Namespace) -> int:
    if args.scenario is None and args.scenario_params:
        return usage_error("--scenario-param requires --scenario")
    try:
        config = flat_config(
            args,
            scenario=args.scenario,
            scenario_params=parse_scenario_params(args.scenario_params),
        )
    except ValueError as error:
        # Malformed KEY=VALUE pairs, unknown scenarios, bad knobs (checked as the
        # config is built) and invalid config values all surface as exit 2.
        return usage_error(error)
    result = run_simulation(config)
    summary = result.summary
    rows = [[config.strategy, summary.mean, summary.median, summary.p95, summary.p99, summary.p999,
             result.throughput_rps]]
    print(format_table(["strategy", "mean", "median", "p95", "p99", "p99.9", "throughput (req/s)"], rows))
    return 0


def scale_arguments(parser: argparse.ArgumentParser) -> None:
    flags = "strategy servers clients requests utilization seed relative_error"
    add_flat_flags(parser, flags, requests=100_000)
    parser.add_argument(
        "--compare-exact", action="store_true",
        help="also run exact mode on the same config and check the deviation against the bound",
    )


def scale_command(args: argparse.Namespace) -> int:
    try:
        config = flat_config(args, metrics_mode="streaming", kernel="batched")
    except ValueError as error:
        return usage_error(error)
    result = run_simulation(config)
    summary = result.summary
    rows = [[config.strategy, summary.count, summary.mean, summary.median, summary.p95,
             summary.p99, summary.p999, result.throughput_rps]]
    headers = ["strategy", "n", "mean", "median", "p95", "p99", "p99.9", "throughput (req/s)"]
    print(format_table(headers, rows))
    histogram = result.latency_histogram
    assert histogram is not None  # streaming mode always attaches one
    print(
        f"streaming histogram: {histogram.bucket_count} buckets "
        f"(relative error {histogram.relative_error:g}, fixed memory — "
        f"no per-request latency list)"
    )
    print(f"digest: {result.digest()}")
    if not args.compare_exact:
        return 0

    exact = run_simulation(config.copy(metrics_mode="exact"))
    modes = (("exact", exact.summary), ("streaming", summary))
    rows = [[mode, s.median, s.p95, s.p99, s.p999] for mode, s in modes]
    print(format_table(["mode", "median", "p95", "p99", "p99.9"], rows))
    ok = True
    for label, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99), ("p99.9", 0.999)):
        within = quantile_within_bound(histogram, exact.latencies_ms, q)
        ok = ok and within
        print(f"{label}: {'within bound' if within else 'OUT OF BOUND'}")
    if not ok:
        print("streaming percentiles violated the documented error bound", file=sys.stderr)
        return 1
    print("all percentiles within the histogram error bound")
    return 0
