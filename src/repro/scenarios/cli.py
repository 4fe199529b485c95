"""``c3-repro scenarios``, and the ``--scenario-param`` parsing ``simulate`` and ``live`` share."""

from __future__ import annotations

import argparse
from typing import Any, Sequence

from ..analysis.report import format_table
from ..strategies.paramspec import parse_value
from .registry import SCENARIOS


def parse_scenario_params(pairs: Sequence[str] | None) -> dict[str, Any]:
    """Parse repeated ``KEY=VALUE`` flags (JSON values, falling back to str)."""
    params: dict[str, Any] = {}
    for pair in pairs or ():
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"malformed --scenario-param {pair!r}; expected KEY=VALUE")
        params[key] = parse_value(raw)
    return params


def scenarios_command(args: argparse.Namespace) -> int:
    rows = []
    for name in SCENARIOS.names():
        entry = SCENARIOS.get(name)
        knobs = ", ".join(f"{k}={v!r}" for k, v in sorted(entry.param_defaults().items())) or "-"
        rows.append([name, entry.description, knobs])
    print(format_table(["scenario", "description", "knobs (defaults)"], rows))
    return 0
