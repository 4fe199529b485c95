"""Tests for the command-line interface."""

import dataclasses

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.live import LiveTrialConfig
from repro.simulator import SimulationConfig, run_simulation


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])
        assert "c3-repro" in capsys.readouterr().out

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    @pytest.mark.parametrize("dest, field", [
        ("strategy", "strategy"),
        ("failure_detector", "failure_detector"),
        ("hedging", "hedging"),
        ("scenario", "scenario"),
        ("servers", "num_servers"),
        ("replication_factor", "replication_factor"),
        ("duration", "duration_s"),
        ("warmup", "warmup_s"),
        ("cooldown", "cooldown_s"),
        ("rate", "arrival_rate_per_s"),
        ("service_time", "base_service_ms"),
        ("seed", "seed"),
    ])
    def test_live_flag_defaults_are_the_config_defaults(self, dest, field):
        defaults = {f.name: f.default for f in dataclasses.fields(LiveTrialConfig)}
        assert getattr(build_parser().parse_args(["live"]), dest) == defaults[field]


class TestCommands:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig06" in out and "fig14" in out

    def test_run_light_experiment(self, capsys):
        assert main(["run", "fig04"]) == 0
        out = capsys.readouterr().out
        assert "fig04" in out and "cubic" in out

    def test_simulate_command(self, capsys):
        code = main(
            [
                "simulate",
                "--strategy", "LOR",
                "--servers", "9",
                "--clients", "10",
                "--requests", "300",
                "--seed", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "LOR" in out and "p99" in out

    def test_cluster_command(self, capsys):
        code = main(
            [
                "cluster",
                "--strategy", "C3",
                "--nodes", "5",
                "--generators", "6",
                "--duration", "300",
                "--seed", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "C3" in out and "throughput" in out


class TestScaleMode:
    def test_simulate_accepts_metrics_mode(self, capsys):
        code = main(
            [
                "simulate",
                "--strategy", "C3",
                "--servers", "9",
                "--clients", "10",
                "--requests", "300",
                "--metrics-mode", "streaming",
            ]
        )
        assert code == 0
        assert "p99" in capsys.readouterr().out

    def test_simulate_rejects_unknown_metrics_mode(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--metrics-mode", "bogus"])
        assert "invalid choice" in capsys.readouterr().err

    def test_scale_command_reports_fixed_memory_histogram(self, capsys):
        code = main(
            [
                "scale",
                "--servers", "9",
                "--clients", "10",
                "--requests", "1000",
                "--utilization", "0.6",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "streaming histogram:" in out
        assert "buckets" in out
        assert "digest:" in out

    def test_scale_compare_exact_checks_the_bound(self, capsys):
        code = main(
            [
                "scale",
                "--servers", "9",
                "--clients", "10",
                "--requests", "1500",
                "--utilization", "0.6",
                "--compare-exact",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "all percentiles within the histogram error bound" in out

    def test_scale_rejects_bad_relative_error(self, capsys):
        assert main(["scale", "--requests", "10", "--relative-error", "2.0"]) == 2
        assert "histogram_relative_error" in capsys.readouterr().err

    def test_sweep_streaming_prints_pooled_column(self, capsys):
        code = main(
            [
                "sweep",
                "--strategy", "C3",
                "--utilization", "0.6",
                "--servers", "9",
                "--clients", "8",
                "--requests", "200",
                "--num-seeds", "2",
                "--serial",
                "--no-cache",
                "--metrics-mode", "streaming",
            ]
        )
        assert code == 0
        assert "pooled p99.9" in capsys.readouterr().out


def _spy_on_run_simulation(monkeypatch) -> list[SimulationConfig]:
    """Record every config the CLI hands to ``run_simulation``, still running it."""
    seen: list[SimulationConfig] = []

    def spy(config):
        seen.append(config)
        return run_simulation(config)

    monkeypatch.setattr(f"repro.{cli.COMMANDS['simulate'][0]}.cli.run_simulation", spy)
    return seen


class TestKernelDefault:
    """``simulate`` and ``scale`` run on the batched kernel unless told otherwise.

    The equivalence contract makes the default invisible in output: the
    batched table must be byte-identical to the object path's.
    """

    SMALL_RUN = ["--servers", "5", "--clients", "4", "--requests", "300", "--seed", "3"]

    def test_simulate_kernel_flag_defaults_to_batched(self):
        assert build_parser().parse_args(["simulate"]).kernel == "batched"

    def test_config_kernel_default_is_unchanged(self):
        assert SimulationConfig().kernel == "object"

    @pytest.mark.parametrize("kernel", ["object", "batched"])
    def test_simulate_kernel_flag_reaches_the_config(self, kernel, monkeypatch, capsys):
        seen = _spy_on_run_simulation(monkeypatch)
        assert main(["simulate", *self.SMALL_RUN, "--kernel", kernel]) == 0
        assert [config.kernel for config in seen] == [kernel]

    def test_simulate_without_flag_runs_batched(self, monkeypatch, capsys):
        seen = _spy_on_run_simulation(monkeypatch)
        assert main(["simulate", *self.SMALL_RUN]) == 0
        assert [config.kernel for config in seen] == ["batched"]

    def test_scale_runs_batched_on_both_legs(self, monkeypatch, capsys):
        seen = _spy_on_run_simulation(monkeypatch)
        assert main(["scale", *self.SMALL_RUN, "--compare-exact"]) == 0
        assert [(config.kernel, config.metrics_mode) for config in seen] == [
            ("batched", "streaming"),
            ("batched", "exact"),
        ]

    @pytest.mark.parametrize("strategy", ["C3", "ORA", "LOR", "RR", "RAND", "P2C", "DS"])
    def test_simulate_default_prints_the_object_table(self, strategy, capsys):
        assert main(["simulate", "--strategy", strategy, *self.SMALL_RUN, "--kernel", "object"]) == 0
        object_out = capsys.readouterr().out
        assert main(["simulate", "--strategy", strategy, *self.SMALL_RUN]) == 0
        assert capsys.readouterr().out == object_out

    @pytest.mark.parametrize("scenario", ["crash-recovery", "bimodal"])
    def test_simulate_default_prints_the_object_table_under_scenario(self, scenario, capsys):
        args = ["simulate", "--scenario", scenario, *self.SMALL_RUN]
        assert main([*args, "--kernel", "object"]) == 0
        object_out = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == object_out


class TestStrategyRegistryCLI:
    def test_strategies_subcommand_lists_registry(self, capsys):
        assert main(["strategies"]) == 0
        out = capsys.readouterr().out
        # Canonical names, aliases, and param defaults all come from the
        # registry — including the paper-notation param aliases.
        for name in ("C3", "ORA", "LOR", "RR", "RAND", "P2C", "DS"):
            assert name in out
        assert "DYNAMIC_SNITCH" in out
        assert "gamma (cubic_c)" in out
        assert "score_exponent (b)" in out
        assert "spec grammar" in out

    def test_simulate_accepts_param_spec(self, capsys):
        code = main(
            [
                "simulate",
                "--strategy", "c3:cubic_c=2e-4",
                "--servers", "9",
                "--clients", "8",
                "--requests", "200",
            ]
        )
        assert code == 0
        assert "C3:gamma=0.0002" in capsys.readouterr().out

    def test_simulate_rejects_unknown_strategy_cleanly(self, capsys):
        assert main(["simulate", "--strategy", "c33", "--requests", "10"]) == 2
        err = capsys.readouterr().err
        assert "unknown strategy" in err and "did you mean 'C3'" in err

    def test_simulate_rejects_unknown_param_cleanly(self, capsys):
        assert main(["simulate", "--strategy", "c3:cubicc=1e-4", "--requests", "10"]) == 2
        assert "did you mean 'cubic_c'" in capsys.readouterr().err

    def test_cluster_rejects_unknown_strategy_cleanly(self, capsys):
        assert main(["cluster", "--strategy", "bogus", "--duration", "50"]) == 2
        assert "unknown strategy" in capsys.readouterr().err

    def test_sweep_over_strategy_params(self, capsys, tmp_path):
        args = [
            "sweep",
            "--strategy", "c3:cubic_c=2e-4",
            "--strategy", "c3:cubic_c=8e-4",
            "--utilization", "0.6",
            "--servers", "9",
            "--clients", "8",
            "--requests", "150",
            "--num-seeds", "2",
            "--serial",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        # Two parameterizations of one strategy are two grid points, each
        # pooled/aggregated separately under its canonical spec string.
        assert "2 strategy" in first
        assert "C3:gamma=0.0002" in first and "C3:gamma=0.0008" in first
        assert "4 executed, 0 from cache" in first
        # The canonical spec is the cache identity: a rerun is fully cached.
        assert main(args) == 0
        assert "0 executed, 4 from cache" in capsys.readouterr().out

    def test_sweep_rejects_unknown_param_cleanly(self, capsys):
        assert main(["sweep", "--strategy", "c3:bogus=1", "--serial"]) == 2
        assert "unknown parameter 'bogus'" in capsys.readouterr().err
