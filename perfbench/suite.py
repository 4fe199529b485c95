"""Every workload in one command, and the comparison of two result files.

    python3 perfbench/suite.py --out perfbench/results/mine.json
    python3 perfbench/suite.py --compare perfbench/results/pr11.json perfbench/results/mine.json

The suite starts ``run.py`` in a fresh interpreter for each run: ``--runs``
untraced runs per workload on seeds ``--seed``, ``--seed`` + 1, ... and one
traced run, prints every metric by name with its unit, and writes one
results file.  Where the machine was measured (CPU, load, versions, commit)
is kept under ``provenance``, outside every compared field.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from run import HERE, ROOT, load_spec


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


# ------------------------------------------------------------------ provenance
def provenance() -> dict:
    cpus = os.cpu_count() or 1
    load = os.getloadavg()[0]
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    noisy = load > 0.5 * cpus
    if noisy:
        print(f"perfbench: 1-min load {load:.2f} on {cpus} CPUs: host-time numbers are noisy", file=sys.stderr)
    return {
        "nproc": cpus,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "load_1min_at_start": load,
        "noisy": noisy,
        "started_unix": time.time(),
    }


# ------------------------------------------------------------------------ suite
def one_run(workload: str, seed: int, seconds: float, trace: int, size: str, workdir: Path) -> dict:
    out = workdir / "run.json"
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
        + ["--seconds", str(seconds), "--trace", str(trace), "--size", size, "--out", str(out)],
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=900,
    )
    record = json.loads(out.read_text(encoding="utf-8"))
    record["metrics"] = {name: metric["value"] for name, metric in record["metrics"].items()}
    return record


def run_suite(args, spec: dict) -> int:
    names = args.workload or [workload["name"] for workload in spec["workloads"]]
    results = {
        "schema": "perfbench-suite-v1",
        "provenance": provenance(),
        "seconds": args.seconds,
        "seeds": list(range(args.seed, args.seed + args.runs)),
        "workloads": {},
    }
    ok = True
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-work-") as workdir:
        for name in names:
            runs = [one_run(name, seed, args.seconds, 0, args.size, Path(workdir)) for seed in results["seeds"]]
            traced = one_run(name, args.seed, args.seconds, 1, args.size, Path(workdir))
            summary = {}
            for metric in spec["end_to_end"]:
                values = [run["metrics"][metric["name"]] for run in runs]
                q1, median, q3 = quartiles(values)
                summary[metric["name"]] = {"unit": metric["unit"], "median": median, "q1": q1, "q3": q3}
                print(f"{name:15s} {metric['name']:40s} {median:16.6f} [{q1:.6f}, {q3:.6f}] {metric['unit']}")
            for metric in spec["per_layer"]:
                value = traced["metrics"][metric["name"]]
                if value:
                    print(f"{name:15s} {metric['name']:40s} {value:16.6f} {metric['unit']}")
            for run in runs + [traced]:
                print(f"{name:15s} seed {run['seed']} trace {run['trace']} digests {' '.join(run['digests'])}")
                if not run["correct"]:
                    ok = False
                    print(f"{name:15s} seed {run['seed']} trace {run['trace']}: INCORRECT", file=sys.stderr)
            results["workloads"][name] = {"runs": runs, "end_to_end": summary, "traced": traced}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


# ---------------------------------------------------------------------- compare
def compare(path_a: Path, path_b: Path, spec: dict) -> int:
    """One row per (workload, end-to-end metric); exit 1 when B is worse.

    ``regressed``: B's median is worse than A's by more than the bound and
    by more than either side's own spread.  ``unresolved``: a side's spread
    (third minus first quartile, over its median) is wider than the bound,
    so the runs cannot show that nothing changed.  ``within`` otherwise.
    """
    a = json.loads(path_a.read_text(encoding="utf-8"))
    b = json.loads(path_b.read_text(encoding="utf-8"))
    for side, results in (("A", a), ("B", b)):
        if results["provenance"]["noisy"]:
            print(f"note: {side} was measured on a loaded machine", file=sys.stderr)
    bad = False
    print(f"{'workload':15s} {'metric':20s} {'A median [q1, q3]':>38s} {'B median [q1, q3]':>38s} {'B/A':>8s} bound verdict")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in spec["end_to_end"]:
            ma, mb = wa["end_to_end"][metric["name"]], wb["end_to_end"][metric["name"]]
            ratio = mb["median"] / ma["median"]
            worse = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
            spread = max((m["q3"] - m["q1"]) / m["median"] for m in (ma, mb))
            if worse > metric["bound"] and worse > spread:
                verdict, bad = "regressed", True
            elif spread > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "within"
            cells = [f"{m['median']:.4f} [{m['q1']:.4f}, {m['q3']:.4f}] {m['unit']}" for m in (ma, mb)]
            print(
                f"{name:15s} {metric['name']:20s} {cells[0]:>38s} {cells[1]:>38s} "
                f"{ratio:8.4f} {metric['bound']:5.2f} {verdict} (B is {ratio:.4f} of A's {ma['median']:.4f})"
            )
        digests_b = {run["seed"]: run["digests"] for run in wb["runs"]}
        for run in wa["runs"]:
            if run["seed"] in digests_b and digests_b[run["seed"]] != run["digests"]:
                bad = True
                print(f"{name:15s} seed {run['seed']}: digests differ, the simulated results changed")
        failed = [
            sum(run["failed"] for run in side["runs"]) / sum(run["attempted"] for run in side["runs"])
            for side in (wa, wb)
        ]
        if failed[1] > failed[0]:
            bad = True
            print(f"{name:15s} failed share rose from {failed[0]:.6f} to {failed[1]:.6f}")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=5, help="untraced runs per workload, each on another seed")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--size", choices=("full", "quick"), default="full")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, spec)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    return run_suite(args, spec)


if __name__ == "__main__":
    sys.exit(main())
