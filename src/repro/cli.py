"""Command-line interface: ``c3-repro`` / ``python -m repro``.

:data:`COMMANDS` is the whole command surface.  A subcommand lives in the
``cli`` module of the subsystem it drives: ``<name>_arguments(parser)`` adds
its flags, if it has any, and ``<name>_command(args)`` runs it and returns the
exit code.  :func:`main` imports only the chosen subcommand's module, so
``--help`` loads no subsystem and no numpy.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module
from typing import Callable, Sequence

from . import __version__

__all__ = ["COMMANDS", "build_parser", "main", "usage_error"]

#: Subcommand -> (the subsystem whose ``cli`` module runs it, one-line help), in listing order.
COMMANDS: dict[str, tuple[str, str]] = {
    "list": ("experiments", "list available experiments"),
    "run": ("experiments", "run one experiment by id"),
    "simulate": ("simulator", "run one flat-simulator scenario"),
    "cluster": ("cluster", "run one cluster scenario"),
    "sweep": ("runner", "run a multi-seed parameter grid through the process-pool sweep runner"),
    "scenarios": ("scenarios", "list builtin fault/perturbation scenarios"),
    "strategies": ("strategies", "list registered replica-selection strategies, aliases, and parameters"),
    "controls": ("controls", "list registered adaptive controls (detectors, hedging, rate) and parameters"),
    "scale": ("simulator", "smoke-test streaming (scale-mode) metrics on one large run"),
    "search": ("runner", "successive-halving search for the metric-optimal value of one strategy parameter"),
    "live": ("live", "run one live asyncio cluster trial (localhost server processes)"),
    "report": ("runner", "render sweep/search/live results and --bench snapshots into one artifact"),
}


def usage_error(message: object) -> int:
    """Print why an invocation is rejected to stderr; its exit code is 2, as argparse's is."""
    print(message, file=sys.stderr)
    return 2


def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and one empty subparser per :data:`COMMANDS` entry."""
    parser = argparse.ArgumentParser(
        prog="c3-repro",
        description="Reproduction of C3: adaptive replica selection (NSDI 2015)",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command")
    return parser, {name: sub.add_parser(name, help=text) for name, (_, text) in COMMANDS.items()}


def _load(name: str, parser: argparse.ArgumentParser) -> Callable[[argparse.Namespace], int]:
    """Import ``name``'s module, add its flags to ``parser`` and return its handler."""
    module = import_module(f".{COMMANDS[name][0]}.cli", __package__)
    add_arguments = getattr(module, f"{name}_arguments", None)
    if add_arguments is not None:
        add_arguments(parser)
    command: Callable[[argparse.Namespace], int] = getattr(module, f"{name}_command")
    return command


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser with every subcommand's flags."""
    parser, subparsers = _parsers()
    for name, subparser in subparsers.items():
        _load(name, subparser)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, subparsers = _parsers()
    # No top-level option takes a value, so the first positional names the subcommand.
    name = next((arg for arg in argv if not arg.startswith("-")), "")
    command = _load(name, subparsers[name]) if name in subparsers else None
    args = parser.parse_args(argv)
    if command is None:
        parser.print_help()
        return 1
    return command(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
