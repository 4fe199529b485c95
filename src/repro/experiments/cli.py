"""``c3-repro list`` and ``c3-repro run``: the experiment registry from the command line."""

from __future__ import annotations

import argparse

from ..analysis.report import format_table
from ..cli import usage_error
from ..scenarios.cli import check_scenarios
from . import list_experiments, registry, run_experiment


def list_command(args: argparse.Namespace) -> int:
    rows = [[experiment_id, registry.describe(experiment_id)] for experiment_id in list_experiments()]
    print(format_table(["experiment", "description"], rows))
    return 0


def run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("experiment_id", help="experiment id (see `c3-repro list`)")
    parser.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="scenario override for experiments that accept one (see `c3-repro scenarios`)",
    )


def run_command(args: argparse.Namespace) -> int:
    kwargs = {}
    if args.scenario is not None:
        error = check_scenarios([args.scenario])
        if error:
            return usage_error(error)
        if not registry.supports_param(args.experiment_id, "scenario"):
            return usage_error(f"experiment {args.experiment_id!r} does not accept a --scenario override")
        kwargs["scenario"] = args.scenario
    result = run_experiment(args.experiment_id, **kwargs)
    print(result.to_text())
    return 0
