"""Interrupted-sweep integration: pooled run, kill, rerun, identical result.

The trial cache is the sweep's only persistent state.  Each trial is
written to it atomically as it finishes, so an interrupted sweep loses
only the trials still running, and running the same sweep again executes
exactly the missing ones.  The interruption is a ``max_trials`` budget in
the first two tests and a real ``SIGKILL`` of a pooled CLI sweep in the
third.
"""

import contextlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.cli import main
from repro.runner import SweepRunner, SweepSpec, TrialCache, seed_range
from repro.simulator import SimulationConfig


def make_spec() -> SweepSpec:
    return SweepSpec(
        base=SimulationConfig(num_servers=9, num_clients=8, num_requests=150, utilization=0.6),
        grid={"strategy": ("C3", "LOR", "RR")},
        seeds=seed_range(4),
    )


class TestInterruptedPooledSweep:
    def test_resume_reexecutes_nothing_and_reproduces_the_digest(self, tmp_path):
        spec = make_spec()
        cache_dir = tmp_path / "cache"

        # Leg 1: pooled sweep interrupted after a 5-trial budget.
        runner = SweepRunner(max_workers=2, cache_dir=cache_dir)
        partial = runner.run(spec, max_trials=5)
        assert not partial.complete
        assert partial.executed == 5 and len(partial.trials) == 5
        assert len(TrialCache(cache_dir)) == 5

        # Leg 2: a fresh runner (what a new process sees) finishes the
        # sweep, re-executing zero completed trials.
        resumed = SweepRunner(max_workers=2, cache_dir=cache_dir).run(spec)
        assert resumed.complete
        assert resumed.executed == 7 and resumed.cached == 5
        assert len(TrialCache(cache_dir)) == 12

        # Leg 3: rerunning a finished sweep is a pure cache read.
        rerun = SweepRunner(max_workers=2, cache_dir=cache_dir).run(spec)
        assert rerun.executed == 0 and rerun.cached == 12
        assert rerun.digest() == resumed.digest()

        # The merged result is identical to one uninterrupted run —
        # trial-by-trial (modulo wall time) and by content digest.
        clean = SweepRunner(max_workers=2, cache_dir=tmp_path / "clean").run(spec)
        assert resumed.digest() == clean.digest()

        def stripped(result):
            payloads = []
            for trial in result.trials:
                payload = trial.to_dict()
                payload.pop("wall_time_s")
                payloads.append(payload)
            return payloads

        assert stripped(resumed) == stripped(clean)
        assert [a.to_dict() for a in resumed.aggregates()] == [
            a.to_dict() for a in clean.aggregates()
        ]

    def test_budget_zero_executes_nothing_then_a_rerun_finishes(self, tmp_path):
        spec = make_spec()
        runner = SweepRunner(max_workers=2, cache_dir=tmp_path / "cache")
        probe = runner.run(spec, max_trials=0)
        assert probe.executed == 0 and len(probe.trials) == 0 and not probe.complete
        finished = runner.run(spec)
        assert finished.complete and finished.executed == 12


#: 3 strategies × 4 seeds; ~80 ms per trial on a 2-core box, so the other
#: eleven are still far from done when the first cache entry lands.
KILL_SWEEP = [
    "sweep",
    "--strategy", "C3", "--strategy", "LOR", "--strategy", "RR",
    "--utilization", "0.6", "--servers", "9", "--clients", "8",
    "--requests", "3000", "--num-seeds", "4", "--workers", "2",
]


def _digest_line(out: str) -> str:
    return next(line for line in out.splitlines() if line.startswith("sweep digest:"))


class TestKilledSweep:
    def test_sigkill_loses_only_running_trials(self, tmp_path, fresh_python, capsys):
        cache_dir = tmp_path / "cache"
        argv = KILL_SWEEP + ["--cache-dir", str(cache_dir)]
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        # A session of its own, so one killpg takes the pool workers too.
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 60.0
            while not (cache_dir.is_dir() and len(TrialCache(cache_dir))):
                assert proc.poll() is None, "sweep exited before its first cache entry"
                assert time.monotonic() < deadline, "no cache entry within 60 s"
                time.sleep(0.002)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL

        kept = len(TrialCache(cache_dir))
        assert 0 < kept < 12

        rerun = fresh_python("-m", "repro", *argv)
        assert rerun.returncode == 0, rerun.stderr
        assert f"{12 - kept} executed, {kept} from cache" in rerun.stdout

        assert main(KILL_SWEEP + ["--cache-dir", str(tmp_path / "clean")]) == 0
        clean = capsys.readouterr().out
        assert _digest_line(rerun.stdout) == _digest_line(clean)
