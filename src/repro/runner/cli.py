"""``c3-repro sweep``, ``search`` and ``report``: the runner from the command line."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any

from ..analysis.report import format_table
from ..analysis.report_sweep import markdown_to_html, render_report
from ..cli import usage_error
from ..controls.cli import DETECTOR_HELP, HEDGING_HELP
from ..scenarios.cli import check_scenarios
from ..simulator.cli import add_flat_flags, flat_config
from ..strategies.cli import STRATEGY_HELP
from .results import AGGREGATE_METRICS, SweepResult
from .runner import SweepRunner
from .search import SearchResult, dense_argmin, successive_halving
from .spec import SweepSpec, seed_range

#: The flags ``sweep`` and ``search`` share word for word: argparse dest ->
#: ``add_argument`` keywords.
_RUNNER_FLAGS: dict[str, dict[str, Any]] = {
    "base_seed": {"type": int, "default": 0, "help": "first seed of the replicate range"},
    "workers": {"type": int, "default": None, "help": "pool size (default: CPU count)"},
    "serial": {"action": "store_true", "help": "run in-process instead of a pool"},
    "no_cache": {"action": "store_true", "help": "disable the trial cache"},
}


def _add_runner_flags(parser: argparse.ArgumentParser, dests: str) -> None:
    """Add the named :data:`_RUNNER_FLAGS` to ``parser``, in the order given."""
    for dest in dests.split():
        parser.add_argument("--" + dest.replace("_", "-"), **_RUNNER_FLAGS[dest])


def _runner(args: argparse.Namespace) -> tuple[SweepRunner, str]:
    """The runner the parsed runner flags describe, and its progress-line label."""
    runner = SweepRunner(
        max_workers=args.workers,
        cache_dir=None if args.no_cache else args.cache_dir,
        parallel=not args.serial,
    )
    return runner, "serial" if args.serial else f"pool x{runner.max_workers}"


#: The ``sweep`` table: headers of the grid axes not headed by their own name,
#: and the aggregates after each grid point's ``n``.
_AXIS_HEADERS = {
    "utilization": "util",
    "fluctuation_interval_ms": "interval (ms)",
    "failure_detector": "detector",
}
_SWEEP_METRICS = ("mean", "median", "p99", "p999", "throughput_rps")


def _check_seed_args(num_seeds: int, base_seed: int) -> str | None:
    """A clean error message for invalid seed-range flags, or ``None``."""
    if num_seeds < 1:
        return f"--num-seeds must be >= 1, got {num_seeds}"
    if base_seed < 0:
        return f"--base-seed must be >= 0, got {base_seed}"
    return None


def sweep_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--strategy", action="append", dest="strategies", metavar="SPEC",
        help=f"strategy to include — {STRATEGY_HELP} (repeatable; default: C3 LOR RR); "
             "distinct parameterizations of one strategy sweep as distinct grid points",
    )
    parser.add_argument(
        "--utilization", action="append", dest="utilizations", type=float, metavar="U",
        help="utilization level to include (repeatable; default: 0.7)",
    )
    parser.add_argument(
        "--interval", action="append", dest="intervals", type=float, metavar="MS",
        help="fluctuation interval (ms) to include (repeatable; default: 100)",
    )
    parser.add_argument(
        "--scenario", action="append", dest="scenarios", metavar="NAME",
        help="scenario to grid over (repeatable; see `c3-repro scenarios`; "
             "default: legacy fluctuation fields, no scenario dimension)",
    )
    parser.add_argument(
        "--failure-detector", action="append", dest="failure_detectors", metavar="SPEC",
        help=f"failure detector to grid over — {DETECTOR_HELP} (repeatable; "
             "default: binary, no detector dimension)",
    )
    parser.add_argument(
        "--hedging", action="append", dest="hedging_specs", metavar="SPEC",
        help=f"hedging policy to grid over — {HEDGING_HELP.replace('default: no hedging', 'repeatable')}; "
             "the literal value 'none' grids an unhedged point",
    )
    add_flat_flags(parser, "servers clients requests", servers=10, clients=40, requests=2_000)
    parser.add_argument("--num-seeds", type=int, default=4, help="replicates per grid point")
    _add_runner_flags(parser, "base_seed workers serial")
    parser.add_argument(
        "--cache-dir", default=".sweep-cache",
        help="trial result cache directory (default: .sweep-cache)",
    )
    add_flat_flags(parser, "rng")
    _add_runner_flags(parser, "no_cache")
    parser.add_argument(
        "--json", dest="json_path", metavar="PATH", help="also save the full sweep result as JSON"
    )
    add_flat_flags(parser, "metrics_mode")
    parser.add_argument(
        "--max-trials", type=int, default=None, metavar="N",
        help="execute at most N cache-miss trials this invocation; rerunning the same "
             "command continues from the cache (budget slicing; needs the cache)",
    )


def sweep_command(args: argparse.Namespace) -> int:
    seed_error = _check_seed_args(args.num_seeds, args.base_seed)
    if seed_error:
        return usage_error(seed_error)
    if args.max_trials is not None and args.no_cache:
        return usage_error(
            "--max-trials defers trials to a rerun that reloads finished ones from "
            "the trial cache; drop --no-cache"
        )
    if args.max_trials is not None and args.max_trials < 0:
        return usage_error(f"--max-trials must be >= 0, got {args.max_trials}")
    grid: dict[str, tuple[Any, ...]] = {
        "strategy": tuple(args.strategies or ("C3", "LOR", "RR")),
        "utilization": tuple(args.utilizations or (0.7,)),
        "fluctuation_interval_ms": tuple(args.intervals or (100.0,)),
    }
    if args.scenarios:
        error = check_scenarios(args.scenarios)
        if error:
            return usage_error(error)
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
            base=flat_config(args),
            grid=grid,
            seeds=seed_range(args.num_seeds, args.base_seed),
        )
    except ValueError as error:
        return usage_error(error)
    runner, mode = _runner(args)
    print(f"sweep {spec.key[:12]}: {spec.describe()} [{mode}]")
    result = runner.run(spec, max_trials=args.max_trials)
    trials = (
        f"trials: {result.total_trials} total, {result.executed} executed, "
        f"{result.cached} from cache, wall {result.wall_time_s:.2f}s"
    )
    if not result.complete:
        print(trials)
        print(
            f"sweep incomplete: {len(result.trials)}/{result.total_trials} trials "
            f"complete; rerun the same command to continue"
        )
        if args.json_path:
            saved = result.save(args.json_path)
            print(f"saved (partial): {saved}")
        return 0

    grid_keys = list(grid)
    streaming = args.metrics_mode == "streaming"
    rows = []
    for point in result.aggregates():
        row = [point.params[key] if point.params[key] is not None else "-" for key in grid_keys]
        row += [point.n, *(str(point.metrics[name]) for name in _SWEEP_METRICS)]
        if streaming:
            # Bucket-merged pool across seeds: one distribution, not a mean
            # of per-seed percentiles.
            pooled = point.pooled or {}
            row.append(f"{pooled.get('p99.9', 0.0):.2f}")
        rows.append(row)
    columns = [_AXIS_HEADERS.get(key, key) for key in grid_keys]
    columns += ["n", "mean (ms)", "median (ms)", "p99 (ms)", "p99.9 (ms)", "throughput (req/s)"]
    if streaming:
        columns.append("pooled p99.9 (ms)")
    print(format_table(columns, rows))
    print(trials)
    # Wall-time-independent content hash: identical across serial/pool,
    # cache-served, and interrupted-then-resumed executions of one spec.
    print(f"sweep digest: {result.digest()}")
    if args.json_path:
        saved = result.save(args.json_path)
        print(f"saved: {saved}")
    return 0


def search_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--strategy", default="C3",
        help="strategy whose parameter is searched (default: C3; see `c3-repro strategies`)",
    )
    parser.add_argument(
        "--param", required=True, metavar="NAME",
        help="the strategy parameter to search, e.g. cubic_c (aliases accepted)",
    )
    parser.add_argument(
        "--values", required=True, metavar="V1,V2,...",
        help="comma-separated candidate values (JSON scalars, e.g. 1e-5,2e-4,8e-4)",
    )
    parser.add_argument(
        "--metric", default="p999", choices=list(AGGREGATE_METRICS),
        help="objective metric (default: p999 = p99.9 latency; throughput_rps maximizes, "
             "latency metrics minimize)",
    )
    parser.add_argument(
        "--eta", type=int, default=2,
        help="halving rate: keep the best 1/eta of each rung's candidates (default: 2)",
    )
    parser.add_argument(
        "--min-seeds", type=int, default=1,
        help="seed-prefix floor for the first rung (default: 1)",
    )
    flags = "servers clients requests utilization interval"
    add_flat_flags(parser, flags, servers=10, clients=40, requests=2_000)
    parser.add_argument(
        "--num-seeds", type=int, default=4,
        help="full replicate count — the final rung ranks survivors on all of them",
    )
    _add_runner_flags(parser, "base_seed workers serial")
    parser.add_argument(
        "--cache-dir", default=".sweep-cache",
        help="trial result cache directory — rung seed prefixes nest, so the cache is "
             "what makes successive halving cheap (default: .sweep-cache)",
    )
    _add_runner_flags(parser, "no_cache")
    add_flat_flags(parser, "rng")
    parser.add_argument(
        "--compare-dense", action="store_true",
        help="also run the dense grid (every candidate × every seed, cache-shared with "
             "the search) and verify the winner matches its argmin; exits 1 on mismatch",
    )
    parser.add_argument(
        "--json", dest="json_path", metavar="PATH",
        help="also save the full search result as JSON (the `report` input shape)",
    )


def search_command(args: argparse.Namespace) -> int:
    seed_error = _check_seed_args(args.num_seeds, args.base_seed)
    if seed_error:
        return usage_error(seed_error)
    raw_values = [chunk.strip() for chunk in args.values.split(",") if chunk.strip()]
    if not raw_values:
        return usage_error(f"--values needs at least one candidate, got {args.values!r}")
    candidates = [f"{args.strategy}:{args.param}={value}" for value in raw_values]
    try:
        base = flat_config(args)
        seeds = seed_range(args.num_seeds, args.base_seed)
        runner, mode = _runner(args)
        minimize = args.metric != "throughput_rps"
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
        return usage_error(error)
    rows = [
        [rung.rung, len(rung.candidates), len(rung.seeds), rung.executed, rung.cached,
         f"{rung.promoted[0]} ({rung.scores[rung.promoted[0]]:.3f})"]
        for rung in result.rungs
    ]
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


def report_arguments(parser: argparse.ArgumentParser) -> None:
    for source, metavar, what in (
        ("live", "DIR", "live-trial artifact directory (`c3-repro live` output)"),
        ("sweep", "PATH", "sweep result JSON (`sweep --json` output)"),
        ("search", "PATH", "search result JSON (`search --json` output)"),
        ("bench", "PATH", "pytest-benchmark JSON snapshot for the perf-trajectory section"),
    ):
        parser.add_argument(f"--{source}", action="append", dest=f"{source}_paths", metavar=metavar,
                            help=f"{what}; repeatable")
    parser.add_argument("--title", default="C3 reproduction — sweep report", help="report title")
    parser.add_argument(
        "--output", default="sweep-report.md", metavar="PATH",
        help="markdown output path (default: sweep-report.md)",
    )
    parser.add_argument(
        "--html", dest="html_path", metavar="PATH",
        help="also render a standalone HTML page to PATH",
    )


def report_command(args: argparse.Namespace) -> int:
    sweeps = []
    for path in args.sweep_paths or ():
        try:
            sweeps.append((Path(path).stem, SweepResult.load(path)))
        except (OSError, KeyError, ValueError) as error:
            return usage_error(f"cannot load sweep result {path}: {error}")
    searches = []
    for path in args.search_paths or ():
        try:
            searches.append(SearchResult.load(path))
        except (OSError, KeyError, ValueError) as error:
            return usage_error(f"cannot load search result {path}: {error}")
    bench_paths = [Path(p) for p in args.bench_paths or ()]
    missing = [str(p) for p in bench_paths if not p.is_file()]
    if missing:
        return usage_error(f"benchmark snapshot(s) not found: {', '.join(missing)}")
    live_trials = []
    for path in args.live_paths or ():
        try:
            from ..live.compare import load_trial

            trial = load_trial(path)
            live_trials.append((Path(path).name, trial.payload))
        except (OSError, KeyError, ValueError) as error:
            return usage_error(f"cannot load live trial {path}: {error}")
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
