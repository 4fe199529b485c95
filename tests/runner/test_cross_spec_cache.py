"""A trial cached by one sweep serves another sweep under that sweep's own grid labels.

The cache key hashes a trial's resolved config, so a sweep that adds an axis
at its default value (``--failure-detector binary``, ``--hedging none``) hits
the trials an earlier sweep without that axis cached.  The hit must be
labelled with the new grid's params, or the new axis is missing from it.
"""

from repro.cli import main
from repro.runner import SweepRunner, SweepSpec, seed_range
from repro.simulator import SimulationConfig

SMALL = ["--utilization", "0.6", "--servers", "9", "--clients", "8", "--requests", "150", "--num-seeds", "2"]


def test_a_cache_hit_carries_the_current_grids_params(tmp_path):
    base = SimulationConfig(num_servers=9, num_clients=8, num_requests=150)
    runner = SweepRunner(cache_dir=tmp_path, parallel=False)
    runner.run(SweepSpec(base=base, grid={"strategy": ("LOR",)}, seeds=seed_range(2)))
    grid = {"strategy": ("LOR",), "failure_detector": ("binary",)}
    wider = SweepSpec(base=base, grid=grid, seeds=seed_range(2))
    cached = runner.run(wider)
    assert cached.cached == 2
    fresh = SweepRunner(parallel=False).run(wider)
    assert [trial.params for trial in cached.trials] == [trial.params for trial in fresh.trials]
    assert cached.digest() == fresh.digest()


def test_sweep_adding_a_default_axis_reads_the_other_sweeps_cache(tmp_path, capsys):
    cache = ["--serial", "--cache-dir", str(tmp_path)]
    assert main(["sweep", "--strategy", "LOR", *SMALL, *cache]) == 0
    capsys.readouterr()
    args = ["sweep", "--strategy", "LOR", "--failure-detector", "binary", "--failure-detector", "phi", *SMALL]
    assert main([*args, *cache]) == 0
    out = capsys.readouterr().out
    assert "2 executed, 2 from cache" in out
    assert "binary" in out and "phi" in out
