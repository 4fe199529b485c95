"""``c3-repro strategies``: the strategy registry as a table, plus the spec grammar.

:func:`print_registry` renders any :class:`~repro.strategies.specbase.Registry`,
so ``c3-repro controls`` lists its registry through it too.
"""

from __future__ import annotations

import argparse

from ..analysis.report import format_table
from .registry import STRATEGIES
from .specbase import Registry

#: The help of every single-strategy ``--strategy`` flag.
STRATEGY_HELP = (
    "strategy name or parameterized spec, e.g. C3 or \"c3:cubic_c=2e-4,b=3\" "
    "(see `c3-repro strategies`)"
)

_GRAMMAR_NOTE = (
    "spec grammar: NAME[:param=value,...] — names/aliases are case-insensitive, "
    "values are JSON scalars, parenthesised short-hands are accepted param "
    "aliases (e.g. \"c3:cubic_c=2e-4,b=3\"); a param left unset (or null) uses "
    "the paper default shown above."
)


def print_registry(registry: Registry, grammar_note: str) -> int:
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


def strategies_command(args: argparse.Namespace) -> int:
    return print_registry(STRATEGIES, _GRAMMAR_NOTE)
