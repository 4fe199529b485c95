"""README's registry tables list exactly what the registries hold.

The tables are written by hand, so these tests are what keep them derived
from the registries: every strategy, control and builtin scenario appears
once (strategies and controls with their aliases), and no row names an
entry its registry does not have.
"""

from __future__ import annotations

from pathlib import Path

from repro.controls.registry import control_names, get_control, kind_label
from repro.scenarios import scenario_names
from repro.strategies import get_strategy, strategy_names

README = Path(__file__).resolve().parents[2] / "README.md"
HEADER = "| Strategy | Aliases | What it does | Parameters (defaults) |"
CONTROL_HEADER = "| Control | Kind | Aliases | What it does | Parameters (defaults) |"
SCENARIO_HEADER = "| Scenario | What it injects |"


def _table(header: str) -> dict[str, list[str]]:
    """``{first cell: remaining cells}`` for the rows of the table under ``header``."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(header) + 2  # skip the header and its separator row
    rows: dict[str, list[str]] = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        first, *rest = (cell.strip() for cell in line.split("|")[1:-1])
        name = first.strip("`")
        assert name not in rows, f"README lists {name} twice"
        rows[name] = rest
    return rows


def _aliases(cell: str) -> tuple[str, ...]:
    return () if cell == "—" else tuple(a.strip().strip("`") for a in cell.split(","))


def test_readme_table_lists_every_registered_strategy_and_nothing_else():
    rows = _table(HEADER)
    assert list(rows) == list(strategy_names())
    for name, cells in rows.items():
        assert _aliases(cells[0]) == get_strategy(name).aliases, name


def test_readme_control_table_lists_every_registered_control_and_nothing_else():
    rows = _table(CONTROL_HEADER)
    assert list(rows) == list(control_names())
    for name, (kind_cell, alias_cell, *_) in rows.items():
        entry = get_control(name)
        assert kind_cell == kind_label(entry.kind), name
        assert _aliases(alias_cell) == entry.aliases, name


def test_readme_scenario_table_lists_every_builtin_scenario_and_nothing_else():
    assert sorted(_table(SCENARIO_HEADER)) == sorted(scenario_names())
