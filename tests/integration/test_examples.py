"""Every ``examples/*.py`` script runs end to end at a smoke size.

Each example builds its configs through the public API exactly as a reader
runs it; only the runner it calls is swapped for one that shrinks the
config first.  A retired config field, flag or import in an example fails
here instead of in a reader's terminal.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.cluster import CassandraCluster, run_cluster
from repro.simulator import run_simulation

EXAMPLES = sorted((Path(__file__).resolve().parents[2] / "examples").glob("*.py"))


def _small_flat(config):
    return run_simulation(config.copy(num_requests=200))


def _small_cluster(config):
    # Duration stays: the examples place their degradation windows by it.
    return config.copy(num_generators=config.num_nodes)


#: Module-level runner name -> the shrinking stand-in patched over it.
SHRINK = {
    "run_simulation": _small_flat,
    "run_cluster": lambda config: run_cluster(_small_cluster(config).copy(duration_ms=200.0)),
    "CassandraCluster": lambda config: CassandraCluster(_small_cluster(config)),
}


def test_examples_found():
    assert len(EXAMPLES) >= 4


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    patched = [name for name in SHRINK if hasattr(module, name)]
    assert patched, f"{path.name} calls no known runner"
    for name in patched:
        monkeypatch.setattr(module, name, SHRINK[name])
    module.main()
    assert "Expected shape" in capsys.readouterr().out
