"""One-command sweep report: sweep + search results + perf trajectory.

:func:`render_report` renders any combination of saved sweep results
(:meth:`~repro.runner.SweepResult.save` JSON), successive-halving search
results (:meth:`~repro.runner.SearchResult.save` JSON), live-trial
payloads (``c3-repro live`` artifact directories), and the
pytest-benchmark snapshots a caller names into a single
markdown document; :func:`markdown_to_html` converts that markdown (the
subset this module emits: headings, pipe tables, bullet lists, paragraphs)
into a dependency-free standalone HTML page.  The ``c3-repro report`` CLI
command and the CI ``sweep-report`` artifact job are thin wrappers around
these two calls.

Everything rendered here is derived from the input files alone — no
timestamps, hostnames, or environment state — so re-rendering the same
inputs is byte-identical, and a report diff is a *results* diff.
"""

from __future__ import annotations

import html
import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - runner imports simulator imports this package
    from ..runner.results import SweepResult
    from ..runner.search import SearchResult

__all__ = [
    "bench_means",
    "markdown_to_html",
    "render_bench_section",
    "render_live_section",
    "render_report",
    "render_search_section",
    "render_sweep_section",
]

#: Aggregate columns shown per grid point, in order: (metric key, header).
_SWEEP_COLUMNS = (
    ("mean", "mean (ms)"),
    ("median", "median (ms)"),
    ("p99", "p99 (ms)"),
    ("p999", "p99.9 (ms)"),
    ("throughput_rps", "throughput (req/s)"),
)


def _fmt(value: object, precision: int = 2) -> str:
    """One cell: floats fixed-precision, everything else ``str``."""
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def _md_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """A GitHub-flavored markdown pipe table."""
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(_fmt(cell) for cell in row) + " |")
    return "\n".join(lines)


def bench_means(path: str | Path) -> dict[str, float]:
    """``{benchmark fullname: mean seconds}`` from a pytest-benchmark JSON."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    means: dict[str, float] = {}
    for bench in payload.get("benchmarks", []):
        name = bench.get("fullname") or bench["name"]
        means[str(name)] = float(bench["stats"]["mean"])
    return means


# ------------------------------------------------------------------ sections
def render_sweep_section(label: str, sweep: SweepResult) -> str:
    """The per-grid-point aggregate table for one saved sweep."""
    lines = [f"## Sweep: {label}", ""]
    total = sweep.total_trials if sweep.total_trials is not None else len(sweep.trials)
    status = "complete" if sweep.complete else f"INCOMPLETE ({len(sweep.trials)}/{total} trials)"
    lines.append(
        f"Spec `{sweep.spec_key[:12]}` — {total} trials, {sweep.executed} executed, "
        f"{sweep.cached} from cache, wall {sweep.wall_time_s:.2f}s — {status}."
    )
    lines.append("")
    points = sweep.aggregates()
    if not points:
        lines.append("No completed trials.")
        return "\n".join(lines)
    param_keys: list[str] = []
    for point in points:
        for key in point.params:
            if key not in param_keys:
                param_keys.append(key)
    streaming = all(point.pooled is not None for point in points)
    headers = (
        param_keys
        + ["n"]
        + [header for _, header in _SWEEP_COLUMNS]
        + (["pooled p99.9 (ms)"] if streaming else [])
    )
    rows = []
    for point in points:
        row: list[object] = [
            point.params.get(key) if point.params.get(key) is not None else "-"
            for key in param_keys
        ]
        row.append(point.n)
        row.extend(str(point.metrics[metric]) for metric, _ in _SWEEP_COLUMNS)
        if streaming:
            pooled = point.pooled or {}
            row.append(f"{pooled.get('p99.9', 0.0):.2f}")
        rows.append(row)
    lines.append(_md_table(headers, rows))
    return "\n".join(lines)


def render_search_section(search: SearchResult) -> str:
    """The rung trajectory and winner for one successive-halving search."""
    direction = "minimizing" if search.minimize else "maximizing"
    lines = [
        f"## Search: {direction} `{search.metric}` over `{search.axis}`",
        "",
        f"**Winner: `{search.best}`** — {search.metric} = {search.best_score:.3f}, "
        f"digest `{search.best_digest[:12]}`.",
        "",
        f"Executed {search.executed} trials vs {search.dense_trials} dense "
        f"({search.executed_fraction:.0%} of the grid; {search.cached} rung trials "
        f"served from cache), eta={search.eta}.",
        "",
    ]
    rows = []
    for rung in search.rungs:
        best = min(rung.scores.items(), key=lambda kv: kv[1] if search.minimize else -kv[1])
        rows.append(
            [
                rung.rung,
                len(rung.candidates),
                len(rung.seeds),
                rung.executed,
                rung.cached,
                f"`{best[0]}` ({best[1]:.3f})",
            ]
        )
    lines.append(
        _md_table(["rung", "candidates", "seeds", "executed", "cached", "rung best (score)"], rows),
    )
    if search.full_scores:
        lines.append("")
        lines.append("Candidates ranked at full replication:")
        lines.append("")
        ordered = sorted(
            search.full_scores.items(),
            key=lambda kv: kv[1] if search.minimize else -kv[1],
        )
        lines.append(
            _md_table(
                ["candidate", search.metric],
                [[f"`{candidate}`", f"{score:.3f}"] for candidate, score in ordered],
            )
        )
    return "\n".join(lines)


def render_live_section(trials: Sequence[tuple[str, Mapping]]) -> str:
    """One table over live-trial payloads (``live/payload.json`` dicts).

    Renders config + results only — the payload's provenance block
    (timestamps, hostname) is deliberately ignored, preserving this
    module's re-render-is-byte-identical contract.
    """
    lines = ["## Live trials", ""]
    if not trials:
        lines.append("No live trials given.")
        return "\n".join(lines)
    lines.append(
        "Localhost asyncio cluster trials (`c3-repro live`); latencies are "
        "warmup/cooldown-trimmed streaming-histogram statistics, measured from the "
        "time each operation was due; slip is how late the load generator issued it."
    )
    lines.append("")
    headers = [
        "trial",
        "strategy",
        "scenario",
        "servers",
        "completed/issued",
        "slip p99 (ms)",
        "n",
        "mean (ms)",
        "median (ms)",
        "p99 (ms)",
        "p99.9 (ms)",
        "throughput (req/s)",
        "timeouts",
    ]
    rows = []
    for label, payload in trials:
        config = payload.get("config", {})
        results = payload.get("results", {})
        latency = results.get("latency_ms", {})
        rows.append(
            [
                label,
                f"`{config.get('strategy', '-')}`",
                f"`{config.get('scenario', '-')}`",
                config.get("num_servers", "-"),
                f"{results.get('completed', '-')}/{results.get('issued', '-')}",
                results.get("slip_ms", {}).get("p99", "-"),
                results.get("trimmed_count", "-"),
                latency.get("mean", "-"),
                latency.get("median", "-"),
                latency.get("p99", "-"),
                latency.get("p999", "-"),
                results.get("throughput_rps", "-"),
                results.get("timeouts", "-"),
            ]
        )
    lines.append(_md_table(headers, rows))
    return "\n".join(lines)


def render_bench_section(paths: Sequence[str | Path]) -> str:
    """The perf trajectory across benchmark snapshot files.

    Columns appear in the given order (pass baselines first); the final
    column is the last/first mean ratio, the per-benchmark trajectory in
    one number (< 1.0 = faster than the first snapshot).
    """
    labeled: list[tuple[str, Mapping[str, float]]] = [
        (Path(path).stem, bench_means(path)) for path in paths
    ]
    lines = ["## Performance trajectory", ""]
    if not labeled:
        lines.append("No benchmark snapshots given.")
        return "\n".join(lines)
    lines.append(
        "Mean wall-clock per benchmark across snapshots ("
        + ", ".join(f"`{label}`" for label, _ in labeled)
        + "); ratio is last/first where both define the benchmark."
    )
    lines.append("")
    names: list[str] = []
    for _, means in labeled:
        for name in means:
            if name not in names:
                names.append(name)
    rows = []
    for name in names:
        row: list[object] = [f"`{name.rsplit('::', 1)[-1]}`"]
        for _, means in labeled:
            row.append(f"{means[name]:.4f}" if name in means else "-")
        first = labeled[0][1].get(name)
        last = labeled[-1][1].get(name)
        row.append(f"{last / first:.2f}x" if first and last else "-")
        rows.append(row)
    headers = ["benchmark"] + [f"{label} (s)" for label, _ in labeled] + ["ratio"]
    lines.append(_md_table(headers, rows))
    return "\n".join(lines)


def render_report(
    sweeps: Sequence[tuple[str, SweepResult]] = (),
    searches: Sequence[SearchResult] = (),
    bench_paths: Sequence[str | Path] = (),
    live_trials: Sequence[tuple[str, Mapping]] = (),
    title: str = "C3 reproduction — sweep report",
) -> str:
    """The full markdown report: sweeps, searches, live trials, perf trajectory."""
    sections = [f"# {title}"]
    summary = []
    if sweeps:
        summary.append(f"{len(sweeps)} sweep{'s' if len(sweeps) != 1 else ''}")
    if searches:
        summary.append(f"{len(searches)} search{'es' if len(searches) != 1 else ''}")
    if live_trials:
        summary.append(f"{len(live_trials)} live trial{'s' if len(live_trials) != 1 else ''}")
    if bench_paths:
        summary.append(f"{len(bench_paths)} benchmark snapshot{'s' if len(bench_paths) != 1 else ''}")
    sections.append("Inputs: " + (", ".join(summary) if summary else "none") + ".")
    for label, sweep in sweeps:
        sections.append(render_sweep_section(label, sweep))
    for search in searches:
        sections.append(render_search_section(search))
    if live_trials:
        sections.append(render_live_section(live_trials))
    if bench_paths:
        sections.append(render_bench_section(bench_paths))
    return "\n\n".join(sections) + "\n"


# ---------------------------------------------------------------------- html
_HTML_STYLE = """\
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif; margin: 2rem auto;
       max-width: 72rem; padding: 0 1rem; color: #1a1a1a; }
table { border-collapse: collapse; margin: 1rem 0; font-size: 0.9rem; }
th, td { border: 1px solid #d0d0d0; padding: 0.3rem 0.6rem; text-align: left; }
th { background: #f2f2f2; }
tr:nth-child(even) td { background: #fafafa; }
code { background: #f2f2f2; padding: 0.1rem 0.25rem; border-radius: 3px;
       font-size: 0.85em; }
h1, h2 { border-bottom: 1px solid #e0e0e0; padding-bottom: 0.3rem; }
"""


def _inline_html(text: str) -> str:
    """Escape HTML, then apply the two inline marks we emit: code and bold."""
    out = []
    escaped = html.escape(text, quote=False)
    for i, chunk in enumerate(escaped.split("`")):
        out.append(chunk if i % 2 == 0 else f"<code>{chunk}</code>")
    joined = "".join(out)
    pieces = joined.split("**")
    if len(pieces) % 2 == 1:
        joined = "".join(
            piece if i % 2 == 0 else f"<strong>{piece}</strong>" for i, piece in enumerate(pieces)
        )
    return joined


def _table_row(line: str) -> list[str]:
    return [cell.strip() for cell in line.strip().strip("|").split("|")]


def markdown_to_html(markdown: str, title: str = "sweep report") -> str:
    """Convert this module's markdown subset to a standalone HTML page.

    Supports exactly what :func:`render_report` emits — ``#``/``##``
    headings, pipe tables, ``-`` bullet lists, paragraphs, inline
    ``code``/``**bold**`` — which keeps the renderer dependency-free.
    """
    body: list[str] = []
    lines = markdown.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        stripped = line.strip()
        if not stripped:
            i += 1
            continue
        if stripped.startswith("#"):
            level = len(stripped) - len(stripped.lstrip("#"))
            level = min(level, 6)
            body.append(f"<h{level}>{_inline_html(stripped[level:].strip())}</h{level}>")
            i += 1
            continue
        if stripped.startswith("|"):
            table = []
            while i < len(lines) and lines[i].strip().startswith("|"):
                table.append(lines[i])
                i += 1
            headers = _table_row(table[0])
            body.append("<table>")
            body.append(
                "<tr>" + "".join(f"<th>{_inline_html(h)}</th>" for h in headers) + "</tr>",
            )
            for row_line in table[2:]:  # skip the |---| separator
                cells = _table_row(row_line)
                body.append(
                    "<tr>" + "".join(f"<td>{_inline_html(c)}</td>" for c in cells) + "</tr>",
                )
            body.append("</table>")
            continue
        if stripped.startswith("- "):
            body.append("<ul>")
            while i < len(lines) and lines[i].strip().startswith("- "):
                body.append(f"<li>{_inline_html(lines[i].strip()[2:])}</li>")
                i += 1
            body.append("</ul>")
            continue
        paragraph = [stripped]
        i += 1
        while i < len(lines):
            nxt = lines[i].strip()
            if not nxt or nxt.startswith(("#", "|", "- ")):
                break
            paragraph.append(nxt)
            i += 1
        body.append(f"<p>{_inline_html(' '.join(paragraph))}</p>")
    return (
        "<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n"
        f"<title>{html.escape(title)}</title>\n<style>\n{_HTML_STYLE}</style>\n"
        "</head>\n<body>\n" + "\n".join(body) + "\n</body>\n</html>\n"
    )
