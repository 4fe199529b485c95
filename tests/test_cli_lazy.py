"""``c3-repro`` loads only the subcommand it runs, and prints the full parser's help.

:func:`repro.cli.main` registers every subcommand from the command table but
imports and fills in only the chosen one.  What a command loads is checked in
a fresh interpreter by ``-X importtime``'s list of imported modules, not by a
clock; what it prints is checked against :func:`repro.cli.build_parser`.
"""

import argparse

import pytest

from repro.cli import COMMANDS, build_parser, main

_SUBSYSTEMS = ("simulator", "cluster", "live", "runner", "experiments")


def _imported(fresh_python, *args: str) -> set[str]:
    """The modules ``python -m repro *args`` imports."""
    done = fresh_python("-X", "importtime", "-m", "repro", *args)
    assert done.returncode == 0, done.stderr
    lines = [line for line in done.stderr.splitlines() if line.startswith("import time:")]
    return {line.rpartition("|")[2].strip() for line in lines}


def _loaded_subsystems(modules: set[str]) -> set[str]:
    return {name.split(".")[1] for name in modules if name.startswith("repro.")} & set(_SUBSYSTEMS)


def test_top_level_help_loads_only_the_command_table(fresh_python):
    modules = _imported(fresh_python, "--help")
    assert "numpy" not in modules
    loaded = {name for name in modules if name.split(".")[0] == "repro"}
    assert loaded <= {"repro", "repro.__main__", "repro.cli"}


@pytest.mark.parametrize("listing", ["strategies", "controls", "scenarios"])
def test_registry_listings_load_no_executor(fresh_python, listing):
    assert _loaded_subsystems(_imported(fresh_python, listing)) == set()


def test_simulate_help_loads_only_the_simulator(fresh_python):
    assert _loaded_subsystems(_imported(fresh_python, "simulate", "--help")) == {"simulator"}


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))


@pytest.mark.parametrize("name", list(COMMANDS))
def test_lazily_built_subcommand_help_is_the_full_parsers(name, capsys):
    expected = _subparsers(build_parser())[name].format_help()
    with pytest.raises(SystemExit) as exit_info:
        main([name, "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == expected


def test_lazily_built_top_level_help_is_the_full_parsers(capsys):
    expected = build_parser().format_help()
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == expected
