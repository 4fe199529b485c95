"""``c3-repro scenarios``, and the scenario checks the other subcommands share."""

from __future__ import annotations

import argparse
import json
from typing import Any, Sequence

from ..analysis.report import format_table
from .registry import get_scenario, scenario_names


def check_scenarios(names: Sequence[str]) -> str | None:
    """An error message when any name is not a registered scenario."""
    known = scenario_names()
    unknown = [name for name in names if name not in known]
    if unknown:
        return (
            f"unknown scenario{'s' if len(unknown) > 1 else ''} "
            f"{', '.join(repr(n) for n in unknown)}; available scenarios: {', '.join(known)}"
        )
    return None


def parse_scenario_params(pairs: Sequence[str] | None) -> dict[str, Any]:
    """Parse repeated ``KEY=VALUE`` flags (JSON values, falling back to str)."""
    params: dict[str, Any] = {}
    for pair in pairs or ():
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"malformed --scenario-param {pair!r}; expected KEY=VALUE")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def scenarios_command(args: argparse.Namespace) -> int:
    rows = []
    for name in scenario_names():
        definition = get_scenario(name)
        knobs = ", ".join(f"{k}={v!r}" for k, v in sorted(definition.knobs.items())) or "-"
        rows.append([name, definition.description, knobs])
    print(format_table(["scenario", "description", "knobs (defaults)"], rows))
    return 0
