"""``c3-repro controls``: the control registry as a table, plus the spec grammar."""

from __future__ import annotations

import argparse

from ..strategies.cli import print_registry
from .registry import CONTROLS

#: The help of every single-spec ``--failure-detector`` and ``--hedging`` flag.
DETECTOR_HELP = (
    "failure-detector control spec, e.g. binary or \"phi:threshold=8\" "
    "(see `c3-repro controls`)"
)
HEDGING_HELP = (
    "hedging control spec, e.g. \"hedge:quantile=0.95,max_extra=1\" "
    "(see `c3-repro controls`; default: no hedging)"
)

_GRAMMAR_NOTE = (
    "spec grammar: NAME[:param=value,...] — the same grammar as strategies; "
    "e.g. --failure-detector \"phi:threshold=8\" or --hedging "
    "\"hedge:quantile=0.95,max_extra=1\". Defaults (binary detection, no "
    "hedging) reproduce the legacy simulator byte-for-byte; any selection x "
    "detection x hedging combination is a valid sweep point."
)


def controls_command(args: argparse.Namespace) -> int:
    return print_registry(CONTROLS, _GRAMMAR_NOTE)
