"""One run of one workload; the last line of standard output is the result.

    python3 perfbench/run.py --workload flat_c3 --seed 0 --seconds 8 --trace 0

``--trace 0`` measures with tracing off and reports every end-to-end metric
of ``BENCHMARK.json``; ``--trace 1`` runs one traced leg plus the isolated
drivers and reports every per-layer metric (0 where the workload does not
reach a layer).  ``suite.py`` runs all workloads and compares result files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "quick"), default="full", help="quick: a smoke run a tenth the size")
    parser.add_argument("--out", type=Path, help="also write the result, with its digests, to this file")
    parser.add_argument("--probe", choices=names, help="internal: time this workload's set-up and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.probe:
        print(json.dumps(workloads.probe(args.probe, args.size)))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    workload = workloads.WORKLOADS[args.workload]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    # Everything a run writes (sweep caches, live trial artifacts) stays in
    # the checkout and is removed again.
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-work-") as workdir:
        run = workload.trace if args.trace else workload.measure
        outcome = run(args.seed, args.seconds, args.size, Path(workdir))

    unknown = sorted(set(outcome.metrics) - {metric["name"] for metric in declared})
    outcome.require(not unknown, f"metrics not declared in BENCHMARK.json: {unknown}")
    metrics = {}
    for metric in declared:
        value = float(outcome.metrics.get(metric["name"], 0.0))
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{args.workload:15s} {metric['name']:40s} {value:16.6f} {metric['unit']}")
    for digest in outcome.digests:
        print(f"{args.workload:15s} digest {digest}")
    for problem in outcome.problems:
        print(f"{args.workload:15s} INCORRECT: {problem}", file=sys.stderr)
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    if args.out:
        record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, digests=outcome.digests)
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # String hashing is randomised per process, and on this code that alone
    # moves host time by several percent from one interpreter to the next
    # (measured: quartile spread of 8 % random, 3 % fixed).  Pin it, for this
    # process and every child, before anything is measured.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
