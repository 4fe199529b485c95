"""Command-line interface: ``c3-repro`` / ``python -m repro``.

Sub-commands
------------

``list``
    List every registered experiment with its description.
``run <experiment-id> [...]``
    Run one experiment and print its report table.
``simulate``
    Run a single flat-simulator scenario with explicit parameters.
``cluster``
    Run a single cluster scenario with explicit parameters.
``sweep``
    Expand a parameter grid (strategies × utilizations × fluctuation
    intervals × scenarios) across N seeds, execute it through the
    process-pool sweep runner with per-trial result caching, and print
    per-grid-point aggregates (mean/median/p99/p99.9/throughput with 95 %
    CIs).
``scenarios``
    List the builtin fault/perturbation scenarios and their knobs.
``strategies``
    List the registered replica-selection strategies — canonical names,
    aliases, and their parameters with defaults — plus the spec grammar
    accepted by every ``--strategy`` flag (``"c3:cubic_c=2e-4,b=3"``).
``controls``
    List the registered adaptive controls — failure detectors, hedging
    policies, and rate controllers — with their parameters and defaults;
    the same spec grammar powers every ``--failure-detector`` and
    ``--hedging`` flag (``"phi:threshold=8"``, ``"hedge:quantile=0.95"``).
``scale``
    Smoke-test scale mode: run one large streaming-metrics simulation
    (fixed-memory histograms instead of per-request latency lists) and
    report its summary, histogram footprint, and — with
    ``--compare-exact`` — the deviation from an exact-mode run of the
    same configuration, checked against the histogram error bound.
``search``
    Successive-halving search for the metric-optimal value of one numeric
    strategy parameter (e.g. the p99.9-optimal ``cubic_c``): every rung is
    an ordinary cached sweep over a growing seed prefix, the final rung
    ranks the survivors at full replication, and ``--compare-dense``
    verifies the winner against the dense grid's argmin on the same seeds.
``live``
    Run one live asyncio cluster trial on localhost: N replica server
    *processes* with real queues, driven by the identical strategy /
    control / scenario specs as the simulator, writing a per-trial
    artifact directory (payload + streaming-histogram JSON + per-server
    load series) consumable by ``report --live``.
``report``
    Render saved sweep results (``sweep --json``), search results
    (``search --json``), live-trial directories (``--live``) and
    pytest-benchmark snapshots named by ``--bench`` into one markdown (and
    optionally HTML) artifact — the reviewable results page CI uploads
    for every PR.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from typing import Sequence

from pathlib import Path

from . import __version__
from .analysis.histogram import quantile_within_bound
from .analysis.report import format_table
from .analysis.report_sweep import markdown_to_html, render_report
from .cluster import ClusterConfig, run_cluster
from .controls.registry import CONTROLS
from .experiments import list_experiments, registry, run_experiment
from .live import LiveTrialConfig, run_trial
from .runner import (
    SearchResult,
    SweepResult,
    SweepRunner,
    SweepSpec,
    dense_argmin,
    seed_range,
    successive_halving,
)
from .runner.results import AGGREGATE_METRICS
from .scenarios import get_scenario, scenario_names
from .simulator import KERNELS, METRICS_MODES, RNGS, SimulationConfig, run_simulation
from .strategies.registry import STRATEGIES
from .strategies.specbase import Registry

__all__ = ["main", "build_parser"]

_STRATEGY_HELP = (
    "strategy name or parameterized spec, e.g. C3 or \"c3:cubic_c=2e-4,b=3\" "
    "(see `c3-repro strategies`)"
)
_DETECTOR_HELP = (
    "failure-detector control spec, e.g. binary or \"phi:threshold=8\" "
    "(see `c3-repro controls`)"
)
_HEDGING_HELP = (
    "hedging control spec, e.g. \"hedge:quantile=0.95,max_extra=1\" "
    "(see `c3-repro controls`; default: no hedging)"
)

#: The flat-run flags of ``simulate`` / ``sweep`` / ``search`` / ``scale``:
#: argparse dest -> (SimulationConfig field, ``add_argument`` keywords).  A
#: flag's default is the field's own unless the subcommand overrides it, and
#: the choices are the simulator's tables, so neither is written down here.
_FLAT_FLAGS: dict[str, tuple[str, dict]] = {
    "strategy": ("strategy", {"help": _STRATEGY_HELP}),
    "failure_detector": ("failure_detector", {"help": _DETECTOR_HELP}),
    "hedging": ("hedging", {"help": _HEDGING_HELP}),
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

#: The ``live`` flags: argparse dest -> (LiveTrialConfig field, ``add_argument``
#: keywords).  Every default is the field's own.
_LIVE_FLAGS: dict[str, tuple[str, dict]] = {
    "strategy": ("strategy", dict(metavar="SPEC", help="strategy spec as in simulate (default %(default)s)")),
    "failure_detector": (
        "failure_detector",
        dict(metavar="SPEC", help="failure-detector spec (e.g. phi:threshold=8); liveness is phi-driven"),
    ),
    "hedging": ("hedging", dict(metavar="SPEC", help="hedging spec (e.g. hedge:quantile=0.95,max_extra=1)")),
    "scenario": (
        "scenario",
        dict(metavar="NAME", help="live-supported scenario: baseline, slow-node, gc-storm, crash-recovery "
                                  "(underscores accepted)"),
    ),
    "servers": ("num_servers", dict(type=int, help="server processes (default %(default)s)")),
    "replication_factor": (
        "replication_factor", dict(type=int, metavar="RF", help="replica group size (default %(default)s)"),
    ),
    "duration": (
        "duration_s",
        dict(type=float, metavar="SECONDS", help="whole trial, warmup included (default %(default)s)"),
    ),
    "warmup": (
        "warmup_s", dict(type=float, metavar="SECONDS", help="leading seconds trimmed (default %(default)s)"),
    ),
    "cooldown": (
        "cooldown_s",
        dict(type=float, metavar="SECONDS", help="trailing seconds trimmed (default %(default)s)"),
    ),
    "rate": (
        "arrival_rate_per_s",
        dict(type=float, metavar="REQ_PER_S", help="open-loop Poisson arrivals (default %(default)s req/s)"),
    ),
    "service_time": (
        "base_service_ms",
        dict(type=float, metavar="MS", help="mean exponential service time (default %(default)s ms)"),
    ),
    "seed": ("seed", dict(type=int, help="trial seed (default %(default)s)")),
}
_LIVE_DEFAULTS = {field.name: field.default for field in fields(LiveTrialConfig)}


def _add_flat_flags(parser: argparse.ArgumentParser, dests: str, **defaults) -> None:
    """Add the named :data:`_FLAT_FLAGS` to ``parser``, in the order given."""
    for dest in dests.split():
        field, keywords = _FLAT_FLAGS[dest]
        parser.add_argument(
            "--" + dest.replace("_", "-"),
            default=defaults.get(dest, _CONFIG_DEFAULTS[field]),
            **keywords,
        )


def _sim_config(args: argparse.Namespace, **overrides) -> SimulationConfig:
    """The :class:`SimulationConfig` a subcommand's parsed flat-run flags describe."""
    chosen = {
        field: getattr(args, dest)
        for dest, (field, _) in _FLAT_FLAGS.items()
        if hasattr(args, dest)
    }
    return SimulationConfig(**{**chosen, **overrides})


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="c3-repro",
        description="Reproduction of C3: adaptive replica selection (NSDI 2015)",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list available experiments")

    run_parser = sub.add_parser("run", help="run one experiment by id")
    run_parser.add_argument("experiment_id", help="experiment id (see `c3-repro list`)")
    run_parser.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="scenario override for experiments that accept one (see `c3-repro scenarios`)",
    )

    sim_parser = sub.add_parser("simulate", help="run one flat-simulator scenario")
    _add_flat_flags(
        sim_parser,
        "strategy failure_detector hedging servers clients requests utilization interval seed",
        requests=10_000,
    )
    sim_parser.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="named perturbation scenario (see `c3-repro scenarios`)",
    )
    sim_parser.add_argument(
        "--scenario-param", action="append", dest="scenario_params", metavar="KEY=VALUE",
        help="override one scenario knob (repeatable; values parsed as JSON, else string)",
    )
    _add_flat_flags(sim_parser, "metrics_mode kernel rng", kernel="batched")

    cluster_parser = sub.add_parser("cluster", help="run one cluster scenario")
    cluster_parser.add_argument("--strategy", default="C3", help=_STRATEGY_HELP)
    cluster_parser.add_argument("--hedging", default=None, help=_HEDGING_HELP)
    cluster_parser.add_argument("--nodes", type=int, default=15)
    cluster_parser.add_argument("--generators", type=int, default=60)
    cluster_parser.add_argument("--duration", type=float, default=2_000.0, help="duration (ms)")
    cluster_parser.add_argument("--mix", default="read_heavy", choices=["read_heavy", "read_only", "update_heavy"])
    cluster_parser.add_argument("--disk", default="hdd", choices=["hdd", "ssd"])
    cluster_parser.add_argument("--seed", type=int, default=0)

    sweep_parser = sub.add_parser(
        "sweep", help="run a multi-seed parameter grid through the process-pool sweep runner"
    )
    sweep_parser.add_argument(
        "--strategy", action="append", dest="strategies", metavar="SPEC",
        help=f"strategy to include — {_STRATEGY_HELP} (repeatable; default: C3 LOR RR); "
             "distinct parameterizations of one strategy sweep as distinct grid points",
    )
    sweep_parser.add_argument(
        "--utilization", action="append", dest="utilizations", type=float, metavar="U",
        help="utilization level to include (repeatable; default: 0.7)",
    )
    sweep_parser.add_argument(
        "--interval", action="append", dest="intervals", type=float, metavar="MS",
        help="fluctuation interval (ms) to include (repeatable; default: 100)",
    )
    sweep_parser.add_argument(
        "--scenario", action="append", dest="scenarios", metavar="NAME",
        help="scenario to grid over (repeatable; see `c3-repro scenarios`; "
             "default: legacy fluctuation fields, no scenario dimension)",
    )
    sweep_parser.add_argument(
        "--failure-detector", action="append", dest="failure_detectors", metavar="SPEC",
        help=f"failure detector to grid over — {_DETECTOR_HELP} (repeatable; "
             "default: binary, no detector dimension)",
    )
    sweep_parser.add_argument(
        "--hedging", action="append", dest="hedging_specs", metavar="SPEC",
        help=f"hedging policy to grid over — {_HEDGING_HELP.replace('default: no hedging', 'repeatable')}; "
             "the literal value 'none' grids an unhedged point",
    )
    _add_flat_flags(sweep_parser, "servers clients requests", servers=10, clients=40, requests=2_000)
    sweep_parser.add_argument("--num-seeds", type=int, default=4, help="replicates per grid point")
    sweep_parser.add_argument("--base-seed", type=int, default=0, help="first seed of the replicate range")
    sweep_parser.add_argument("--workers", type=int, default=None, help="pool size (default: CPU count)")
    sweep_parser.add_argument("--serial", action="store_true", help="run in-process instead of a pool")
    sweep_parser.add_argument(
        "--cache-dir", default=".sweep-cache",
        help="trial result cache directory (default: .sweep-cache)",
    )
    _add_flat_flags(sweep_parser, "rng")
    sweep_parser.add_argument("--no-cache", action="store_true", help="disable the trial cache")
    sweep_parser.add_argument("--json", dest="json_path", metavar="PATH", help="also save the full sweep result as JSON")
    _add_flat_flags(sweep_parser, "metrics_mode")
    sweep_parser.add_argument(
        "--max-trials", type=int, default=None, metavar="N",
        help="execute at most N cache-miss trials this invocation; rerunning the same "
             "command continues from the cache (budget slicing; needs the cache)",
    )

    sub.add_parser("scenarios", help="list builtin fault/perturbation scenarios")

    sub.add_parser(
        "strategies",
        help="list registered replica-selection strategies, aliases, and parameters",
    )

    sub.add_parser(
        "controls",
        help="list registered adaptive controls (detectors, hedging, rate) and parameters",
    )

    scale_parser = sub.add_parser(
        "scale", help="smoke-test streaming (scale-mode) metrics on one large run"
    )
    _add_flat_flags(
        scale_parser,
        "strategy servers clients requests utilization seed relative_error",
        requests=100_000,
    )
    scale_parser.add_argument(
        "--compare-exact", action="store_true",
        help="also run exact mode on the same config and check the deviation against the bound",
    )

    search_parser = sub.add_parser(
        "search",
        help="successive-halving search for the metric-optimal value of one strategy parameter",
    )
    search_parser.add_argument(
        "--strategy", default="C3",
        help="strategy whose parameter is searched (default: C3; see `c3-repro strategies`)",
    )
    search_parser.add_argument(
        "--param", required=True, metavar="NAME",
        help="the strategy parameter to search, e.g. cubic_c (aliases accepted)",
    )
    search_parser.add_argument(
        "--values", required=True, metavar="V1,V2,...",
        help="comma-separated candidate values (JSON scalars, e.g. 1e-5,2e-4,8e-4)",
    )
    search_parser.add_argument(
        "--metric", default="p999", choices=list(AGGREGATE_METRICS),
        help="objective metric (default: p999 = p99.9 latency; throughput_rps maximizes, "
             "latency metrics minimize)",
    )
    search_parser.add_argument(
        "--eta", type=int, default=2,
        help="halving rate: keep the best 1/eta of each rung's candidates (default: 2)",
    )
    search_parser.add_argument(
        "--min-seeds", type=int, default=1,
        help="seed-prefix floor for the first rung (default: 1)",
    )
    _add_flat_flags(
        search_parser,
        "servers clients requests utilization interval",
        servers=10, clients=40, requests=2_000,
    )
    search_parser.add_argument(
        "--num-seeds", type=int, default=4,
        help="full replicate count — the final rung ranks survivors on all of them",
    )
    search_parser.add_argument("--base-seed", type=int, default=0, help="first seed of the replicate range")
    search_parser.add_argument("--workers", type=int, default=None, help="pool size (default: CPU count)")
    search_parser.add_argument("--serial", action="store_true", help="run in-process instead of a pool")
    search_parser.add_argument(
        "--cache-dir", default=".sweep-cache",
        help="trial result cache directory — rung seed prefixes nest, so the cache is "
             "what makes successive halving cheap (default: .sweep-cache)",
    )
    search_parser.add_argument("--no-cache", action="store_true", help="disable the trial cache")
    _add_flat_flags(search_parser, "rng")
    search_parser.add_argument(
        "--compare-dense", action="store_true",
        help="also run the dense grid (every candidate × every seed, cache-shared with "
             "the search) and verify the winner matches its argmin; exits 1 on mismatch",
    )
    search_parser.add_argument(
        "--json", dest="json_path", metavar="PATH",
        help="also save the full search result as JSON (the `report` input shape)",
    )

    live_parser = sub.add_parser(
        "live",
        help="run one live asyncio cluster trial (localhost server processes)",
    )
    for dest, (field, keywords) in _LIVE_FLAGS.items():
        live_parser.add_argument(
            "--" + dest.replace("_", "-"), default=_LIVE_DEFAULTS[field], **keywords
        )
    live_parser.add_argument(
        "--scenario-param", action="append", dest="scenario_params", metavar="KEY=VALUE",
        help="override one scenario knob; repeatable",
    )
    live_parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="artifact directory (default: trials/<strategy>-<scenario>-seed<seed>)",
    )

    report_parser = sub.add_parser(
        "report",
        help="render sweep/search/live results and --bench snapshots into one artifact",
    )
    report_parser.add_argument(
        "--live", action="append", dest="live_paths", metavar="DIR",
        help="live-trial artifact directory (`c3-repro live` output); repeatable",
    )
    report_parser.add_argument(
        "--sweep", action="append", dest="sweep_paths", metavar="PATH",
        help="sweep result JSON (`sweep --json` output); repeatable",
    )
    report_parser.add_argument(
        "--search", action="append", dest="search_paths", metavar="PATH",
        help="search result JSON (`search --json` output); repeatable",
    )
    report_parser.add_argument(
        "--bench", action="append", dest="bench_paths", metavar="PATH",
        help="pytest-benchmark JSON snapshot for the perf-trajectory section; repeatable",
    )
    report_parser.add_argument(
        "--title", default="C3 reproduction — sweep report", help="report title",
    )
    report_parser.add_argument(
        "--output", default="sweep-report.md", metavar="PATH",
        help="markdown output path (default: sweep-report.md)",
    )
    report_parser.add_argument(
        "--html", dest="html_path", metavar="PATH",
        help="also render a standalone HTML page to PATH",
    )
    return parser


def _check_scenarios(names: Sequence[str]) -> str | None:
    """An error message when any name is not a registered scenario."""
    known = scenario_names()
    unknown = [name for name in names if name not in known]
    if unknown:
        return (
            f"unknown scenario{'s' if len(unknown) > 1 else ''} "
            f"{', '.join(repr(n) for n in unknown)}; available scenarios: {', '.join(known)}"
        )
    return None


def _parse_scenario_params(pairs: Sequence[str] | None) -> dict:
    """Parse repeated ``KEY=VALUE`` flags (JSON values, falling back to str)."""
    params: dict = {}
    for pair in pairs or ():
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"malformed --scenario-param {pair!r}; expected KEY=VALUE")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def _cmd_list() -> int:
    rows = [[experiment_id, registry.describe(experiment_id)] for experiment_id in list_experiments()]
    print(format_table(["experiment", "description"], rows))
    return 0


def _cmd_scenarios() -> int:
    rows = []
    for name in scenario_names():
        definition = get_scenario(name)
        knobs = ", ".join(f"{k}={v!r}" for k, v in sorted(definition.knobs.items())) or "-"
        rows.append([name, definition.description, knobs])
    print(format_table(["scenario", "description", "knobs (defaults)"], rows))
    return 0


_STRATEGY_GRAMMAR_NOTE = (
    "spec grammar: NAME[:param=value,...] — names/aliases are case-insensitive, "
    "values are JSON scalars, parenthesised short-hands are accepted param "
    "aliases (e.g. \"c3:cubic_c=2e-4,b=3\"); a param left unset (or null) uses "
    "the paper default shown above."
)
_CONTROL_GRAMMAR_NOTE = (
    "spec grammar: NAME[:param=value,...] — the same grammar as strategies; "
    "e.g. --failure-detector \"phi:threshold=8\" or --hedging "
    "\"hedge:quantile=0.95,max_extra=1\". Defaults (binary detection, no "
    "hedging) reproduce the legacy simulator byte-for-byte; any selection x "
    "detection x hedging combination is a valid sweep point."
)


def _cmd_registry(registry: Registry, grammar_note: str) -> int:
    """Print one registry's listing: a row per entry, then its spec-grammar note."""
    with_kind = len(registry.kinds) > 1
    rows = []
    for name in registry.names():
        info = registry.get(name)
        rendered = []
        for field_name, default in info.param_defaults().items():
            aliases = info.aliases_for(field_name)
            label = f"{field_name} ({', '.join(aliases)})" if aliases else field_name
            rendered.append(f"{label}={default!r}")
        row = [name, ", ".join(info.aliases) or "-", info.description, ", ".join(rendered) or "-"]
        if with_kind:
            row.insert(1, registry.kinds[info.kind])
        rows.append(row)
    headers = [registry.noun, "aliases", "description", "params (defaults)"]
    if with_kind:
        headers.insert(1, "kind")
    print(format_table(headers, rows))
    print()
    print(grammar_note)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    kwargs = {}
    if args.scenario is not None:
        error = _check_scenarios([args.scenario])
        if error:
            print(error, file=sys.stderr)
            return 2
        if not registry.supports_param(args.experiment_id, "scenario"):
            print(
                f"experiment {args.experiment_id!r} does not accept a --scenario override",
                file=sys.stderr,
            )
            return 2
        kwargs["scenario"] = args.scenario
    result = run_experiment(args.experiment_id, **kwargs)
    print(result.to_text())
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.scenario is not None:
        error = _check_scenarios([args.scenario])
        if error:
            print(error, file=sys.stderr)
            return 2
    elif args.scenario_params:
        print("--scenario-param requires --scenario", file=sys.stderr)
        return 2
    try:
        config = _sim_config(
            args,
            scenario=args.scenario,
            scenario_params=_parse_scenario_params(args.scenario_params),
        )
    except ValueError as error:
        # Malformed KEY=VALUE pairs, unknown scenario knobs, and invalid
        # config values all surface as the CLI's clean exit-2 error shape.
        print(error, file=sys.stderr)
        return 2
    result = run_simulation(config)
    summary = result.summary
    rows = [[config.strategy, summary.mean, summary.median, summary.p95, summary.p99, summary.p999, result.throughput_rps]]
    print(format_table(["strategy", "mean", "median", "p95", "p99", "p99.9", "throughput (req/s)"], rows))
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
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
        print(error, file=sys.stderr)
        return 2
    result = run_cluster(config)
    summary = result.read_summary
    rows = [[config.strategy, args.mix, summary.mean, summary.median, summary.p95, summary.p99, summary.p999, result.throughput_rps]]
    print(
        format_table(
            ["strategy", "workload", "mean", "median", "p95", "p99", "p99.9", "throughput (ops/s)"], rows
        )
    )
    return 0


def _check_seed_args(num_seeds: int, base_seed: int) -> str | None:
    """A clean error message for invalid seed-range flags, or ``None``."""
    if num_seeds < 1:
        return f"--num-seeds must be >= 1, got {num_seeds}"
    if base_seed < 0:
        return f"--base-seed must be >= 0, got {base_seed}"
    return None


def _cmd_sweep(args: argparse.Namespace) -> int:
    seed_error = _check_seed_args(args.num_seeds, args.base_seed)
    if seed_error:
        print(seed_error, file=sys.stderr)
        return 2
    if args.max_trials is not None and args.no_cache:
        print(
            "--max-trials defers trials to a rerun that reloads finished ones from "
            "the trial cache; drop --no-cache",
            file=sys.stderr,
        )
        return 2
    if args.max_trials is not None and args.max_trials < 0:
        print(f"--max-trials must be >= 0, got {args.max_trials}", file=sys.stderr)
        return 2
    grid = {
        "strategy": tuple(args.strategies or ("C3", "LOR", "RR")),
        "utilization": tuple(args.utilizations or (0.7,)),
        "fluctuation_interval_ms": tuple(args.intervals or (100.0,)),
    }
    if args.scenarios:
        error = _check_scenarios(args.scenarios)
        if error:
            print(error, file=sys.stderr)
            return 2
        grid["scenario"] = tuple(args.scenarios)
    if args.failure_detectors:
        grid["failure_detector"] = tuple(args.failure_detectors)
    if args.hedging_specs:
        # The literal "none" grids an unhedged point alongside hedged ones.
        grid["hedging"] = tuple(
            None if value.lower() == "none" else value for value in args.hedging_specs
        )
    try:
        # SweepSpec canonicalizes the strategy axis (bare names and
        # parameterized specs alike) and rejects unknown strategies or
        # params with the registry's did-you-mean error.
        spec = SweepSpec(
            base=_sim_config(args),
            grid=grid,
            seeds=seed_range(args.num_seeds, args.base_seed),
        )
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    runner = SweepRunner(
        max_workers=args.workers,
        cache_dir=None if args.no_cache else args.cache_dir,
        parallel=not args.serial,
    )
    mode = "serial" if args.serial else f"pool x{runner.max_workers}"
    print(f"sweep {spec.key[:12]}: {spec.describe()} [{mode}]")
    result = runner.run(spec, max_trials=args.max_trials)
    if not result.complete:
        print(
            f"trials: {result.total_trials} total, {result.executed} executed, "
            f"{result.cached} from cache, wall {result.wall_time_s:.2f}s"
        )
        print(
            f"sweep incomplete: {len(result.trials)}/{result.total_trials} trials "
            f"complete; rerun the same command to continue"
        )
        if args.json_path:
            saved = result.save(args.json_path)
            print(f"saved (partial): {saved}")
        return 0

    param_headers = {
        "strategy": "strategy",
        "utilization": "util",
        "fluctuation_interval_ms": "interval (ms)",
        "scenario": "scenario",
        "failure_detector": "detector",
        "hedging": "hedging",
    }
    grid_keys = list(grid)
    streaming = args.metrics_mode == "streaming"
    rows = []
    for point in result.aggregates():
        metrics = point.metrics
        row = (
            [point.params[key] if point.params[key] is not None else "-" for key in grid_keys]
            + [
                point.n,
                str(metrics["mean"]),
                str(metrics["median"]),
                str(metrics["p99"]),
                str(metrics["p999"]),
                str(metrics["throughput_rps"]),
            ]
        )
        if streaming:
            # Bucket-merged pool across seeds: one distribution, not a mean
            # of per-seed percentiles.
            pooled = point.pooled or {}
            row.append(f"{pooled.get('p99.9', 0.0):.2f}")
        rows.append(row)
    headers = (
        [param_headers.get(key, key) for key in grid_keys]
        + ["n", "mean (ms)", "median (ms)", "p99 (ms)", "p99.9 (ms)", "throughput (req/s)"]
    )
    if streaming:
        headers.append("pooled p99.9 (ms)")
    print(format_table(headers, rows))
    print(
        f"trials: {len(result.trials)} total, {result.executed} executed, "
        f"{result.cached} from cache, wall {result.wall_time_s:.2f}s"
    )
    # Wall-time-independent content hash: identical across serial/pool,
    # cache-served, and interrupted-then-resumed executions of one spec.
    print(f"sweep digest: {result.digest()}")
    if args.json_path:
        saved = result.save(args.json_path)
        print(f"saved: {saved}")
    return 0


def _cmd_scale(args: argparse.Namespace) -> int:
    try:
        config = _sim_config(args, metrics_mode="streaming", kernel="batched")
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    result = run_simulation(config)
    summary = result.summary
    rows = [[config.strategy, summary.count, summary.mean, summary.median, summary.p95,
             summary.p99, summary.p999, result.throughput_rps]]
    print(format_table(
        ["strategy", "n", "mean", "median", "p95", "p99", "p99.9", "throughput (req/s)"], rows
    ))
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
    exact_summary = exact.summary
    print(format_table(
        ["mode", "median", "p95", "p99", "p99.9"],
        [
            ["exact", exact_summary.median, exact_summary.p95, exact_summary.p99, exact_summary.p999],
            ["streaming", summary.median, summary.p95, summary.p99, summary.p999],
        ],
    ))
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


def _cmd_search(args: argparse.Namespace) -> int:
    seed_error = _check_seed_args(args.num_seeds, args.base_seed)
    if seed_error:
        print(seed_error, file=sys.stderr)
        return 2
    raw_values = [chunk.strip() for chunk in args.values.split(",") if chunk.strip()]
    if not raw_values:
        print(f"--values needs at least one candidate, got {args.values!r}", file=sys.stderr)
        return 2
    candidates = [f"{args.strategy}:{args.param}={value}" for value in raw_values]
    try:
        base = _sim_config(args)
        seeds = seed_range(args.num_seeds, args.base_seed)
        runner = SweepRunner(
            max_workers=args.workers,
            cache_dir=None if args.no_cache else args.cache_dir,
            parallel=not args.serial,
        )
        minimize = args.metric != "throughput_rps"
        mode = "serial" if args.serial else f"pool x{runner.max_workers}"
        direction = "minimize" if minimize else "maximize"
        print(
            f"search: {direction} {args.metric} over {len(candidates)} candidates "
            f"({args.strategy}:{args.param}) × {len(seeds)} seeds, eta={args.eta} [{mode}]"
        )
        result = successive_halving(
            base,
            "strategy",
            candidates,
            seeds,
            metric=args.metric,
            eta=args.eta,
            min_seeds=args.min_seeds,
            minimize=minimize,
            runner=runner,
        )
    except ValueError as error:
        # Unknown strategies/params, malformed values, and bad schedule
        # knobs all surface as the CLI's clean exit-2 error shape.
        print(error, file=sys.stderr)
        return 2
    rows = []
    for rung in result.rungs:
        rung_best = rung.promoted[0]
        rows.append(
            [
                rung.rung,
                len(rung.candidates),
                len(rung.seeds),
                rung.executed,
                rung.cached,
                f"{rung_best} ({rung.scores[rung_best]:.3f})",
            ]
        )
    print(format_table(
        ["rung", "candidates", "seeds", "executed", "cached", "rung best (score)"], rows
    ))
    print(f"winner: {result.best}  {args.metric}={result.best_score:.3f}  digest {result.best_digest}")
    print(
        f"trials: {result.executed} executed of {result.dense_trials} dense "
        f"({result.executed_fraction:.1%} of the grid), {result.cached} from cache, "
        f"wall {result.wall_time_s:.2f}s"
    )
    if args.json_path:
        saved = result.save(args.json_path)
        print(f"saved: {saved}")
    if args.compare_dense:
        dense_best, dense_score, dense_digest, dense_executed = dense_argmin(
            base, "strategy", candidates, seeds,
            metric=args.metric, minimize=minimize, runner=runner,
        )
        print(
            f"dense argmin: {dense_best}  {args.metric}={dense_score:.3f}  "
            f"digest {dense_digest} ({dense_executed} additional trials executed)"
        )
        if dense_digest == result.best_digest:
            print("winner matches dense argmin")
        else:
            print(
                f"SEARCH MISMATCH: search winner {result.best} != dense argmin {dense_best}",
                file=sys.stderr,
            )
            return 1
    return 0


def _cmd_live(args: argparse.Namespace) -> int:
    try:
        config = LiveTrialConfig(
            scenario_params=_parse_scenario_params(args.scenario_params),
            **{field: getattr(args, dest) for dest, (field, _) in _LIVE_FLAGS.items()},
        )
    except (KeyError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 2
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


def _cmd_report(args: argparse.Namespace) -> int:
    sweeps = []
    for path in args.sweep_paths or ():
        try:
            sweeps.append((Path(path).stem, SweepResult.load(path)))
        except (OSError, KeyError, ValueError) as error:
            print(f"cannot load sweep result {path}: {error}", file=sys.stderr)
            return 2
    searches = []
    for path in args.search_paths or ():
        try:
            searches.append(SearchResult.load(path))
        except (OSError, KeyError, ValueError) as error:
            print(f"cannot load search result {path}: {error}", file=sys.stderr)
            return 2
    bench_paths = [Path(p) for p in args.bench_paths or ()]
    missing = [str(p) for p in bench_paths if not p.is_file()]
    if missing:
        print(f"benchmark snapshot(s) not found: {', '.join(missing)}", file=sys.stderr)
        return 2
    live_trials = []
    for path in args.live_paths or ():
        try:
            from .live.compare import load_trial

            trial = load_trial(path)
            live_trials.append((Path(path).name, trial.payload))
        except (OSError, KeyError, ValueError) as error:
            print(f"cannot load live trial {path}: {error}", file=sys.stderr)
            return 2
    markdown = render_report(
        sweeps=sweeps,
        searches=searches,
        bench_paths=bench_paths,
        live_trials=live_trials,
        title=args.title,
    )
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(markdown, encoding="utf-8")
    print(f"wrote: {output}")
    if args.html_path:
        html_output = Path(args.html_path)
        html_output.parent.mkdir(parents=True, exist_ok=True)
        html_output.write_text(markdown_to_html(markdown, title=args.title), encoding="utf-8")
        print(f"wrote: {html_output}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "scenarios":
        return _cmd_scenarios()
    if args.command == "strategies":
        return _cmd_registry(STRATEGIES, _STRATEGY_GRAMMAR_NOTE)
    if args.command == "controls":
        return _cmd_registry(CONTROLS, _CONTROL_GRAMMAR_NOTE)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "cluster":
        return _cmd_cluster(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "scale":
        return _cmd_scale(args)
    if args.command == "search":
        return _cmd_search(args)
    if args.command == "live":
        return _cmd_live(args)
    if args.command == "report":
        return _cmd_report(args)
    parser.print_help()
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
