"""Tests for the ``search`` and ``report`` CLI commands."""

from repro.cli import main

SEARCH_ARGS = [
    "search",
    "--param", "cubic_c",
    "--values", "1e-4,2e-4,5e-4,1e-3",
    "--servers", "5",
    "--clients", "4",
    "--requests", "80",
    "--utilization", "0.7",
    "--num-seeds", "2",
    "--serial",
]


def run_search(capsys, *extra: str) -> str:
    assert main(SEARCH_ARGS + list(extra)) == 0
    return capsys.readouterr().out


class TestSearchCommand:
    def test_prints_rung_table_winner_and_budget(self, capsys, tmp_path):
        out = run_search(capsys, "--cache-dir", str(tmp_path / "cache"))
        assert "search: minimize p999 over 4 candidates (C3:cubic_c) × 2 seeds" in out
        assert "rung" in out and "candidates" in out and "executed" in out
        assert "winner: C3:gamma=" in out
        assert "of 8 dense" in out  # 4 candidates × 2 seeds

    def test_compare_dense_confirms_the_winner(self, capsys, tmp_path):
        out = run_search(
            capsys, "--cache-dir", str(tmp_path / "cache"), "--compare-dense"
        )
        assert "dense argmin:" in out
        assert "winner matches dense argmin" in out

    def test_json_export_round_trips(self, capsys, tmp_path):
        from repro.runner import SearchResult

        json_path = tmp_path / "search.json"
        out = run_search(
            capsys, "--cache-dir", str(tmp_path / "cache"), "--json", str(json_path)
        )
        assert "saved:" in out
        loaded = SearchResult.load(json_path)
        assert loaded.axis == "strategy" and loaded.metric == "p999"
        assert loaded.dense_trials == 8
        assert loaded.best.startswith("C3:gamma=")

    def test_empty_values_is_a_clean_error(self, capsys):
        assert main(["search", "--param", "cubic_c", "--values", " , "]) == 2
        assert "--values needs at least one candidate" in capsys.readouterr().err

    def test_unknown_param_is_a_clean_error(self, capsys):
        assert main(["search", "--param", "nope", "--values", "1,2"]) == 2
        assert "nope" in capsys.readouterr().err

    def test_seed_flags_are_validated(self, capsys):
        assert main(SEARCH_ARGS + ["--num-seeds", "0"]) == 2
        assert "--num-seeds must be >= 1" in capsys.readouterr().err
        assert main(SEARCH_ARGS + ["--base-seed", "-1"]) == 2
        assert "--base-seed must be >= 0" in capsys.readouterr().err

    def test_bad_eta_is_a_clean_error(self, capsys):
        assert main(SEARCH_ARGS + ["--eta", "1"]) == 2
        assert "eta must be >= 2" in capsys.readouterr().err

    def test_search_listed_in_help(self, capsys):
        assert main([]) == 1
        assert "search" in capsys.readouterr().out


class TestReportCommand:
    def make_inputs(self, capsys, tmp_path):
        sweep_json = tmp_path / "sweep.json"
        assert main([
            "sweep", "--strategy", "C3", "--strategy", "LOR",
            "--servers", "5", "--clients", "4", "--requests", "80",
            "--num-seeds", "2", "--serial",
            "--cache-dir", str(tmp_path / "cache"), "--json", str(sweep_json),
        ]) == 0
        search_json = tmp_path / "search.json"
        assert main(
            SEARCH_ARGS
            + ["--cache-dir", str(tmp_path / "cache"), "--json", str(search_json)]
        ) == 0
        capsys.readouterr()
        return sweep_json, search_json

    def test_renders_markdown_and_html(self, capsys, tmp_path):
        sweep_json, search_json = self.make_inputs(capsys, tmp_path)
        output = tmp_path / "report.md"
        html_output = tmp_path / "report.html"
        assert main([
            "report", "--sweep", str(sweep_json), "--search", str(search_json),
            "--output", str(output), "--html", str(html_output),
        ]) == 0
        out = capsys.readouterr().out
        assert f"wrote: {output}" in out and f"wrote: {html_output}" in out
        markdown = output.read_text(encoding="utf-8")
        assert "## Sweep: sweep" in markdown
        assert "**Winner: `C3:gamma=" in markdown
        assert "Performance trajectory" not in markdown  # no --bench given
        page = html_output.read_text(encoding="utf-8")
        assert page.startswith("<!DOCTYPE html>") and "<table>" in page

    def test_explicit_bench_snapshots_render_the_trajectory(self, capsys, tmp_path):
        import json

        sweep_json, _ = self.make_inputs(capsys, tmp_path)
        bench = tmp_path / "BENCH_x.json"
        bench.write_text(json.dumps({
            "benchmarks": [{"fullname": "b.py::test_a", "stats": {"mean": 0.5}}]
        }), encoding="utf-8")
        output = tmp_path / "report.md"
        assert main([
            "report", "--sweep", str(sweep_json), "--bench", str(bench),
            "--output", str(output),
        ]) == 0
        markdown = output.read_text(encoding="utf-8")
        assert "Performance trajectory" in markdown and "test_a" in markdown

    def test_missing_bench_snapshot_is_a_clean_error(self, capsys, tmp_path):
        assert main([
            "report", "--bench", str(tmp_path / "nope.json"),
            "--output", str(tmp_path / "report.md"),
        ]) == 2
        assert "not found" in capsys.readouterr().err

    def test_unreadable_sweep_input_is_a_clean_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        assert main(["report", "--sweep", str(bad), "--output", str(tmp_path / "r.md")]) == 2
        assert "cannot load sweep result" in capsys.readouterr().err

    def test_unreadable_search_input_is_a_clean_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json", encoding="utf-8")
        assert main(["report", "--search", str(bad), "--output", str(tmp_path / "r.md")]) == 2
        assert "cannot load search result" in capsys.readouterr().err
