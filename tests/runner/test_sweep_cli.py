"""Tests for the ``sweep`` CLI command and its cache behavior."""

import pytest

from repro.cli import main
from repro.runner import SweepResult

#: ≥3 configs (strategies) × ≥4 seeds, kept tiny so the suite stays fast.
SWEEP_ARGS = [
    "sweep",
    "--strategy", "C3",
    "--strategy", "LOR",
    "--strategy", "RR",
    "--utilization", "0.6",
    "--servers", "9",
    "--clients", "8",
    "--requests", "150",
    "--num-seeds", "4",
    "--workers", "2",
]


def run_sweep(capsys, *extra: str) -> str:
    assert main(SWEEP_ARGS + list(extra)) == 0
    return capsys.readouterr().out


class TestSweepCommand:
    def test_prints_aggregate_table_with_cis(self, capsys, tmp_path):
        out = run_sweep(capsys, "--cache-dir", str(tmp_path / "cache"))
        assert "3 strategy × 1 utilization × 1 fluctuation_interval_ms × 4 seeds = 12 trials" in out
        for strategy in ("C3", "LOR", "RR"):
            assert strategy in out
        assert "p99 (ms)" in out and "p99.9 (ms)" in out and "throughput" in out
        assert "±" in out  # confidence intervals are shown
        assert "12 executed, 0 from cache" in out

    def test_identical_invocation_served_from_cache(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        first = run_sweep(capsys, "--cache-dir", cache)
        second = run_sweep(capsys, "--cache-dir", cache)
        assert "12 executed, 0 from cache" in first
        assert "0 executed, 12 from cache" in second
        # Cached rerun reproduces the aggregate table exactly.
        def table(out):
            return [line for line in out.splitlines() if "±" in line]

        assert table(first) == table(second)

    def test_spec_change_invalidates_cache(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        run_sweep(capsys, "--cache-dir", cache)
        out = run_sweep(capsys, "--cache-dir", cache, "--requests", "151")
        assert "12 executed, 0 from cache" in out

    def test_no_cache_flag_disables_reuse(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        run_sweep(capsys, "--cache-dir", cache, "--no-cache")
        out = run_sweep(capsys, "--cache-dir", cache, "--no-cache")
        assert "12 executed, 0 from cache" in out

    def test_serial_mode_and_json_export(self, capsys, tmp_path):
        json_path = tmp_path / "result.json"
        out = run_sweep(
            capsys, "--cache-dir", str(tmp_path / "cache"), "--serial", "--json", str(json_path)
        )
        assert "[serial]" in out
        assert json_path.is_file()
        loaded = SweepResult.load(json_path)
        assert len(loaded.trials) == 12
        assert len(loaded.aggregates()) == 3

    def test_sweep_listed_in_help(self, capsys):
        assert main([]) == 1
        assert "sweep" in capsys.readouterr().out


#: A tiny scenario-gridded sweep: 2 strategies × 2 scenarios × 2 seeds.
SCENARIO_SWEEP_ARGS = [
    "sweep",
    "--strategy", "C3",
    "--strategy", "LOR",
    "--utilization", "0.6",
    "--servers", "9",
    "--clients", "8",
    "--requests", "150",
    "--num-seeds", "2",
    "--serial",
]


class TestSweepScenarioFlag:
    def run_scenario_sweep(self, capsys, *extra: str) -> str:
        assert main(SCENARIO_SWEEP_ARGS + list(extra)) == 0
        return capsys.readouterr().out

    def test_scenario_becomes_a_grid_dimension(self, capsys, tmp_path):
        out = self.run_scenario_sweep(
            capsys, "--scenario", "baseline", "--scenario", "gc-storm",
            "--cache-dir", str(tmp_path / "cache"),
        )
        assert "2 scenario" in out and "= 8 trials" in out
        assert "baseline" in out and "gc-storm" in out
        assert "scenario" in out.splitlines()[1]  # table header includes the dimension

    def test_unknown_scenario_is_a_clean_error(self, capsys):
        assert main(SCENARIO_SWEEP_ARGS + ["--scenario", "gc-typo"]) == 2
        captured = capsys.readouterr()
        assert "unknown scenario 'gc-typo'" in captured.err
        assert "available scenarios:" in captured.err
        assert "gc-storm" in captured.err

    def test_changing_only_the_scenario_invalidates_the_cache(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        first = self.run_scenario_sweep(
            capsys, "--scenario", "baseline", "--cache-dir", cache
        )
        assert "4 executed, 0 from cache" in first
        rerun = self.run_scenario_sweep(
            capsys, "--scenario", "baseline", "--cache-dir", cache
        )
        assert "0 executed, 4 from cache" in rerun
        changed = self.run_scenario_sweep(
            capsys, "--scenario", "gc-storm", "--cache-dir", cache
        )
        assert "4 executed, 0 from cache" in changed

    def test_simulate_accepts_scenario_and_params(self, capsys):
        assert main([
            "simulate", "--scenario", "gc-storm", "--scenario-param", "slowdown_factor=8",
            "--servers", "9", "--clients", "8", "--requests", "100", "--seed", "1",
        ]) == 0
        assert "C3" in capsys.readouterr().out

    def test_simulate_rejects_unknown_scenario(self, capsys):
        assert main(["simulate", "--scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_simulate_rejects_params_without_scenario(self, capsys):
        assert main(["simulate", "--scenario-param", "x=1"]) == 2
        assert "requires --scenario" in capsys.readouterr().err

    def test_simulate_rejects_unknown_knob_cleanly(self, capsys):
        assert main(["simulate", "--scenario", "gc-storm", "--scenario-param", "nope=1"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario_params" in err and "nope" in err

    def test_simulate_rejects_malformed_param_cleanly(self, capsys):
        assert main(["simulate", "--scenario", "gc-storm", "--scenario-param", "bad"]) == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_scenarios_subcommand_lists_builtins(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("baseline", "bimodal", "gc-storm", "crash-recovery", "slow-node"):
            assert name in out
        assert "knobs" in out


class TestSeedFlagValidation:
    def test_sweep_rejects_zero_num_seeds(self, capsys):
        assert main(SWEEP_ARGS[:1] + ["--num-seeds", "0"]) == 2
        assert "--num-seeds must be >= 1, got 0" in capsys.readouterr().err

    def test_sweep_rejects_negative_base_seed(self, capsys):
        assert main(SWEEP_ARGS[:1] + ["--base-seed", "-3"]) == 2
        assert "--base-seed must be >= 0, got -3" in capsys.readouterr().err


class TestMaxTrialsFlag:
    def run_budgeted(self, capsys, cache: str, *extra: str) -> tuple[int, str, str]:
        code = main(SWEEP_ARGS + ["--cache-dir", cache] + list(extra))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_budgeted_run_then_resume_reexecutes_nothing(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        code, out, _ = self.run_budgeted(capsys, cache, "--max-trials", "5")
        assert code == 0
        assert "sweep incomplete: 5/12 trials complete" in out
        assert "rerun the same command to continue" in out

        code, resumed, _ = self.run_budgeted(capsys, cache)
        assert code == 0
        assert "7 executed, 5 from cache" in resumed
        digest_line = next(
            line for line in resumed.splitlines() if line.startswith("sweep digest:")
        )

        code, rerun, _ = self.run_budgeted(capsys, cache)
        assert code == 0
        assert "0 executed, 12 from cache" in rerun
        assert digest_line in rerun.splitlines()

    def test_digest_matches_an_uninterrupted_sweep(self, capsys, tmp_path):
        interrupted = str(tmp_path / "a")
        self.run_budgeted(capsys, interrupted, "--max-trials", "4")
        _, resumed, _ = self.run_budgeted(capsys, interrupted)
        _, clean, _ = self.run_budgeted(capsys, str(tmp_path / "b"))

        def digest(out: str) -> str:
            return next(line for line in out.splitlines() if line.startswith("sweep digest:"))

        assert digest(resumed) == digest(clean)

    def test_max_trials_conflicts_with_no_cache(self, capsys, tmp_path):
        code, _, err = self.run_budgeted(
            capsys, str(tmp_path / "cache"), "--max-trials", "3", "--no-cache"
        )
        assert code == 2
        assert "drop --no-cache" in err

    def test_negative_max_trials_is_a_clean_error(self, capsys, tmp_path):
        code, _, err = self.run_budgeted(capsys, str(tmp_path / "cache"), "--max-trials", "-1")
        assert code == 2
        assert "--max-trials must be >= 0" in err

    @pytest.mark.parametrize("flag", ["--checkpoint", "--resume"])
    def test_manifest_flags_are_gone(self, capsys, tmp_path, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(SWEEP_ARGS + ["--cache-dir", str(tmp_path / "cache"), flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        assert flag not in capsys.readouterr().out

    def test_partial_json_export(self, capsys, tmp_path):
        from repro.runner import SweepResult

        json_path = tmp_path / "partial.json"
        code, out, _ = self.run_budgeted(
            capsys, str(tmp_path / "cache"), "--max-trials", "3", "--json", str(json_path)
        )
        assert code == 0
        assert "saved (partial):" in out
        loaded = SweepResult.load(json_path)
        assert not loaded.complete and len(loaded.trials) == 3 and loaded.total_trials == 12
