"""The six workloads: what each runs, measures and checks.

Host time (what the simulator, runner or live client costs) and simulated
time (what the modelled store achieves) are separate numbers.  Simulated
numbers and digests are a pure function of ``--seed``; they come from a
fixed number of legs, so a faster or slower host cannot change them.

Each workload has two entry points: ``measure`` (tracing off, the
end-to-end metrics) and ``trace`` (one leg with the spans of
:mod:`tracing` installed, the per-layer metrics).
"""

from __future__ import annotations

import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, Callable, NamedTuple

from drivers import run_drivers, trial_job
from tracing import Tracer

HERE = Path(__file__).resolve().parent

#: Legs whose simulated results are reported; more legs may run to fill
#: ``--seconds``, but only host-time metrics use them.
FIXED_LEGS = 3

#: Fresh interpreters started to time set-up; the median is reported.
SETUP_PROBES = 5

#: Cached reruns of the sweep after its cold runs.
CACHED_RERUNS = 30

#: The live workload splits ``--seconds`` into this many trials, so that
#: spawn/connect/teardown is set up several times in a run.
LIVE_TRIALS = 3

#: ``size`` -> divisor of a leg's length ("tiny" only has to reach every
#: lazily imported module once).
SIZES = {"full": 1, "quick": 10, "tiny": 150}


@dataclass
class Outcome:
    """What one run reports: metrics, operation counts, and why it failed."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)


def leg_seed(seed: int, leg: int) -> int:
    """Leg seeds of different ``--seed`` values never overlap."""
    return seed * 100 + leg


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_with_children() -> float:
    """CPU seconds of this process plus the children it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _within(started: float, seconds: float, last_step_s: float) -> bool:
    """Whether another step of about ``last_step_s`` still fits the budget."""
    return perf_counter() - started + 0.5 * last_step_s < seconds


# --------------------------------------------------------------- set-up probe
def probe(name: str, size: str) -> dict[str, float]:
    """Runs in a fresh interpreter: import, build, and a tiny first leg."""
    workload = WORKLOADS[name]
    started = perf_counter()
    for module in workload.modules:
        importlib.import_module(module)
    imported = perf_counter()
    first_leg = workload.probe(size)
    built = perf_counter()
    first_leg()
    done = perf_counter()
    return {"import_s": imported - started, "build_s": built - imported, "first_leg_s": done - built}


def probe_setup(name: str, size: str, count: int = SETUP_PROBES) -> tuple[float, dict[str, float]]:
    """Median wall time of ``count`` fresh interpreters running :func:`probe`.

    ``setup_s`` runs from interpreter launch to its exit, so it counts the
    launch, the imports, building the workload's objects and whatever the
    first call sets up lazily.  Returned with it: the medians of the phases
    the probes timed themselves, as ``setup.*`` per-layer metrics.
    """
    walls, phases = [], []
    for _ in range(count):
        started = perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--probe", name, "--size", size],
            check=True,
            capture_output=True,
            text=True,
            timeout=120,
        )
        walls.append(perf_counter() - started)
        phases.append(json.loads(done.stdout.splitlines()[-1]))
    medians = {f"setup.{key}": statistics.median(p[key] for p in phases) for key in phases[0]}
    return statistics.median(walls), medians


# ------------------------------------------------------- simulated workloads
@dataclass
class Leg:
    """One build + run of a simulation."""

    build_s: float
    run_s: float
    cpu_s: float
    attempted: int
    completed: int
    digest: str
    digest_s: float
    p50_ms: float
    p99_ms: float
    p999_ms: float
    throughput_rps: float
    events: int
    backpressure: int
    copies: int

    @property
    def wall_s(self) -> float:
        return self.build_s + self.run_s + self.digest_s


def _flat(requests: int, **path) -> Callable:
    def build(seed: int, strategy: str, size: str):
        from repro.simulator import SimulationConfig
        from repro.simulator.simulation import ReplicaSelectionSimulation

        config = SimulationConfig(strategy=strategy, num_requests=requests // SIZES[size], seed=seed, **path)
        return ReplicaSelectionSimulation(config)

    return build


def _cluster(mix: str) -> Callable:
    def build(seed: int, strategy: str, size: str):
        from repro.cluster.cluster import CassandraCluster
        from repro.experiments.common import ClusterScale

        scale = ClusterScale(duration_ms=2_000.0 / SIZES[size], seed=seed)
        return CassandraCluster(scale.to_config(strategy, mix))

    return build


@dataclass(frozen=True)
class SimWorkload:
    """A deterministic simulation run leg by leg (``flat_*``, ``cluster_*``)."""

    name: str
    build: Callable
    baseline: str
    trace_group: str
    modules: tuple[str, ...]

    def probe(self, size: str) -> Callable:
        self.build(0, "C3", size)  # the full-size objects the first leg would use
        return self.build(0, "C3", "tiny").run

    def leg(self, seed: int, strategy: str, size: str) -> Leg:
        started = perf_counter()
        simulation = self.build(seed, strategy, size)
        built = perf_counter()
        cpu = process_time()
        result = simulation.run()
        cpu = process_time() - cpu
        ran = perf_counter()
        digest = result.digest()
        digested = perf_counter()
        reads = result.read_summary
        # Flat runs are asked for a request count; closed-loop cluster runs
        # issue what their generators manage within the horizon.
        asked = getattr(simulation.config, "num_requests", result.issued_requests)
        return Leg(
            build_s=built - started,
            run_s=ran - built,
            cpu_s=cpu,
            attempted=asked,
            completed=result.completed_requests,
            digest=digest,
            digest_s=digested - ran,
            p50_ms=reads.median,
            p99_ms=reads.p99,
            p999_ms=reads.p999,
            throughput_rps=result.throughput_rps,
            events=simulation.loop.processed_events,
            backpressure=result.backpressure_events,
            copies=result.duplicate_requests,
        )

    def _count(self, outcome: Outcome, legs: list[Leg]) -> None:
        for leg in legs:
            outcome.attempted += leg.attempted
            outcome.failed += leg.attempted - leg.completed

    def measure(self, seed: int, seconds: float, size: str, workdir: Path) -> Outcome:
        outcome = Outcome()
        setup_s, _ = probe_setup(self.name, size)
        # The warm-up leg is discarded as a timing, but it repeats leg 0, so
        # its digest shows the simulation is deterministic in this process.
        warm = self.leg(leg_seed(seed, 0), "C3", size)
        legs: list[Leg] = []
        started = perf_counter()
        while len(legs) < FIXED_LEGS or _within(started, seconds, legs[-1].wall_s):
            legs.append(self.leg(leg_seed(seed, len(legs)), "C3", size))
        self._count(outcome, legs)
        outcome.require(warm.digest == legs[0].digest, "leg 0 does not repeat its warm-up digest")
        outcome.digests = [leg.digest for leg in legs[:FIXED_LEGS]]
        outcome.metrics = {
            "setup_s": setup_s,
            "host_ops_per_s": statistics.median(leg.completed / leg.run_s for leg in legs),
            "host_cpu_ms_per_op": statistics.median(leg.cpu_s / leg.completed * 1e3 for leg in legs),
            "peak_rss_mb": peak_rss_mb(),
        }
        return outcome

    def trace(self, seed: int, seconds: float, size: str, workdir: Path) -> Outcome:
        outcome = Outcome()
        _, phases = probe_setup(self.name, size, count=3)
        first = leg_seed(seed, 0)
        self.leg(first, "C3", size)  # warm-up
        plain = self.leg(first, "C3", size)
        baseline = self.leg(first, self.baseline, size)
        tracer = Tracer()
        tracer.install(self.trace_group)
        try:
            traced = self.leg(first, "C3", size)
        finally:
            tracer.uninstall()
        tracer.write_jsonl(trace_path(self.name))
        self._count(outcome, [plain, baseline, traced])
        outcome.require(traced.digest == plain.digest, "tracing changed the simulation's digest")
        outcome.digests = [plain.digest, baseline.digest]
        outcome.metrics = {
            **phases,
            **tracer.metrics(),
            **run_drivers(workdir, 1.0 / SIZES[size]),
            "trace.overhead_share": (traced.wall_s - plain.wall_s) / plain.wall_s,
            "trace.unattributed_share": (traced.wall_s - tracer.attributed_s()) / traced.wall_s,
            "sim.p50_ms": plain.p50_ms,
            "sim.p99_ms": plain.p99_ms,
            "sim.p999_ms": plain.p999_ms,
            "sim.throughput_rps": plain.throughput_rps,
            "sim.p99_ratio_vs_baseline": plain.p99_ms / baseline.p99_ms,
            "sim.backpressure_share": plain.backpressure / plain.attempted,
            "sim.copies_per_op": plain.copies / plain.attempted,
            "simulator.engine.events_per_req": plain.events / plain.completed,
            "simulator.engine.host_us_per_event": plain.run_s / max(plain.events, 1) * 1e6,
        }
        return outcome


# --------------------------------------------------------------- sweep runner
#: The reference grid of the sweep/search CI job: 12 ``cubic_c`` candidates.
CUBIC_C = "1e-5 2e-5 5e-5 1e-4 1.5e-4 2e-4 3e-4 5e-4 8e-4 1.6e-3 3.2e-3 6.4e-3".split()
SWEEP_SEEDS = 8
SWEEP_WORKERS = 2


@dataclass(frozen=True)
class SweepWorkload:
    """The runner, not the simulator: 12 candidates x 8 seeds, cold then cached."""

    name: str = "sweep_12x8"
    modules: tuple[str, ...] = ("repro.runner", "repro.simulator")

    def spec(self, seed: int, size: str):
        from repro.runner import SweepSpec
        from repro.simulator import SimulationConfig

        base = SimulationConfig(
            num_servers=9, num_clients=8, num_requests=max(2_000 // SIZES[size], 50), utilization=0.75
        )
        first = leg_seed(seed, 0)
        return SweepSpec(
            base=base,
            grid={"strategy": [f"c3:cubic_c={value}" for value in CUBIC_C]},
            seeds=range(first, first + SWEEP_SEEDS),
        )

    def probe(self, size: str) -> Callable:
        from repro.runner import SweepRunner, execute_trial

        for trial in self.spec(0, size).trials():
            trial.key  # expansion and key hashing come before the first trial
        SweepRunner(max_workers=SWEEP_WORKERS)
        job = trial_job(self.spec(0, "tiny").trials()[0])
        return lambda: execute_trial(job)

    def _cold(self, spec, cache_dir: Path, parallel: bool = True):
        """One cold run in a fresh cache: (runner, result, wall s, CPU s)."""
        from repro.runner import SweepRunner

        shutil.rmtree(cache_dir, ignore_errors=True)
        runner = SweepRunner(max_workers=SWEEP_WORKERS, cache_dir=cache_dir, parallel=parallel)
        cpu = cpu_with_children()
        started = perf_counter()
        result = runner.run(spec)
        wall = perf_counter() - started
        return runner, result, wall, cpu_with_children() - cpu

    def _check(self, outcome: Outcome, spec, result, executed: int, digest: str | None = None) -> None:
        """Count one pass over the grid; every trial must be there and agree."""
        trials = spec.num_trials
        outcome.attempted += trials
        ok = (
            result.complete
            and result.executed == executed
            and result.cached == trials - executed
            and all(trial.completed_requests == spec.base.num_requests for trial in result.trials)
            and (digest is None or result.digest() == digest)
        )
        if not ok:
            outcome.failed += trials
            outcome.problems.append(f"sweep pass: executed {result.executed}, cached {result.cached}, or digest differs")

    def _cached(self, outcome: Outcome, runner, spec, digest: str, reruns: int) -> list[float]:
        walls = []
        for _ in range(reruns):
            started = perf_counter()
            rerun = runner.run(spec)
            walls.append(perf_counter() - started)
            self._check(outcome, spec, rerun, executed=0, digest=digest)
        return walls

    def measure(self, seed: int, seconds: float, size: str, workdir: Path) -> Outcome:
        outcome = Outcome()
        setup_s, _ = probe_setup(self.name, size)
        spec = self.spec(seed, size)
        trials = spec.num_trials
        colds: list[tuple[float, float]] = []
        digest = None
        started = perf_counter()
        while len(colds) < 2 or _within(started, seconds, colds[-1][0]):
            runner, result, wall, cpu = self._cold(spec, workdir / "sweep-cache")
            self._check(outcome, spec, result, executed=trials, digest=digest)
            digest = digest or result.digest()
            colds.append((wall, cpu))
        self._cached(outcome, runner, spec, digest, CACHED_RERUNS)
        outcome.digests = [digest]
        outcome.metrics = {
            "setup_s": setup_s,
            "host_ops_per_s": trials / statistics.median(wall for wall, _ in colds),
            "host_cpu_ms_per_op": statistics.median(cpu for _, cpu in colds) / trials * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        }
        return outcome

    def trace(self, seed: int, seconds: float, size: str, workdir: Path) -> Outcome:
        outcome = Outcome()
        _, phases = probe_setup(self.name, size, count=3)
        spec = self.spec(seed, size)
        trials = spec.num_trials
        cache_dir = workdir / "sweep-cache"
        runner, pooled, pooled_wall, _ = self._cold(spec, cache_dir)
        self._check(outcome, spec, pooled, executed=trials)
        trial_sum = sum(trial.wall_time_s for trial in pooled.trials)
        cache_bytes = sum(path.stat().st_size for path in cache_dir.glob("*/*.json"))
        digest = pooled.digest()
        plain_cached = statistics.median(self._cached(outcome, runner, spec, digest, CACHED_RERUNS))

        tracer = Tracer()
        tracer.install("runner")
        try:
            traced_started = perf_counter()
            runner, serial, _, _ = self._cold(spec, cache_dir, parallel=False)
            serial.aggregates()
            cold = tracer.totals()
            rerun_started = perf_counter()
            self._cached(outcome, runner, spec, digest, 1)
            traced_cached = perf_counter() - rerun_started
            traced_wall = perf_counter() - traced_started
        finally:
            tracer.uninstall()
        tracer.write_jsonl(trace_path(self.name))
        self._check(outcome, spec, serial, executed=trials, digest=digest)
        outcome.digests = [digest]
        after = tracer.totals()
        points = pooled.aggregates()
        outcome.metrics = {
            **phases,
            **run_drivers(workdir, 1.0 / SIZES[size]),
            "runner.expand_s": cold["runner.expand"][1],
            "runner.payload_s": cold["runner.config_to_payload"][1],
            "runner.trial_run_s": trial_sum,
            "runner.pool_overhead_s": pooled_wall - trial_sum / SWEEP_WORKERS,
            "runner.pool_efficiency": trial_sum / (SWEEP_WORKERS * pooled_wall),
            "runner.cache_write_s": cold["runner.cache.put"][1],
            "runner.cache_read_s": after["runner.cache.get"][1] - cold["runner.cache.get"][1],
            "runner.aggregate_s": cold["runner.aggregate"][1],
            "runner.cache_bytes_per_trial": cache_bytes / trials,
            "runner.cached_trials_per_s": trials / plain_cached,
            "trace.overhead_share": (traced_cached - plain_cached) / plain_cached,
            "trace.unattributed_share": (traced_wall - tracer.attributed_s()) / traced_wall,
            "sim.p50_ms": statistics.median(point.metrics["median"].mean for point in points),
            "sim.p99_ms": statistics.median(point.metrics["p99"].mean for point in points),
            "sim.p999_ms": statistics.median(point.metrics["p999"].mean for point in points),
            "sim.throughput_rps": statistics.median(point.metrics["throughput_rps"].mean for point in points),
        }
        return outcome


# --------------------------------------------------------------- live backend
LIVE_RATE_PER_S = 400.0


class LiveTrial(NamedTuple):
    result: Any  # repro.live.LiveTrialResult
    wall_s: float
    client_cpu_s: float
    server_cpu_s: float


@dataclass(frozen=True)
class LiveWorkload:
    """LOR over three server processes on loopback, one node four times slower.

    Open loop in intent: the client sleeps each Poisson gap after the
    previous wake-up and stamps latency at actual issue time, so schedule
    slip lowers the offered rate (``live.issued_ratio``) and latency is not
    corrected for coordinated omission.
    """

    name: str = "live_lor"
    modules: tuple[str, ...] = ("repro.live",)

    def probe(self, size: str) -> Callable:
        return lambda: None  # spawn/connect/teardown is timed around each trial

    def trial(self, seed: int, duration_s: float, out_dir: Path) -> LiveTrial:
        from repro.live import LiveTrialConfig, run_trial

        config = LiveTrialConfig(
            strategy="lor",
            scenario="slow-node",
            num_servers=3,
            arrival_rate_per_s=LIVE_RATE_PER_S,
            duration_s=duration_s,
            warmup_s=0.2 * duration_s,
            cooldown_s=0.1 * duration_s,
            seed=seed,
        )
        servers = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = process_time()
        started = perf_counter()
        result = run_trial(config, out_dir)
        wall = perf_counter() - started
        cpu = process_time() - cpu
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        server_cpu = after.ru_utime + after.ru_stime - servers.ru_utime - servers.ru_stime
        return LiveTrial(result, wall, cpu, server_cpu)

    def _count(self, outcome: Outcome, result) -> None:
        counts = result.results
        outcome.attempted += counts["issued"]
        outcome.failed += counts["issued"] - counts["completed"]

    def measure(self, seed: int, seconds: float, size: str, workdir: Path) -> Outcome:
        outcome = Outcome()
        setup_s, _ = probe_setup(self.name, size, count=LIVE_TRIALS)
        duration = seconds / SIZES[size] / LIVE_TRIALS
        trials = [
            self.trial(leg_seed(seed, index), duration, workdir / f"live-{index}") for index in range(LIVE_TRIALS)
        ]
        for trial in trials:
            self._count(outcome, trial.result)
        outcome.metrics = {
            "setup_s": setup_s + statistics.median(trial.wall_s - duration for trial in trials),
            "host_ops_per_s": statistics.median(trial.result.results["completed"] / duration for trial in trials),
            "host_cpu_ms_per_op": statistics.median(
                trial.client_cpu_s / trial.result.results["issued"] * 1e3 for trial in trials
            ),
            "peak_rss_mb": peak_rss_mb(),
        }
        return outcome

    def trace(self, seed: int, seconds: float, size: str, workdir: Path) -> Outcome:
        outcome = Outcome()
        _, phases = probe_setup(self.name, size, count=3)
        duration = seconds / SIZES[size] / LIVE_TRIALS
        first = leg_seed(seed, 0)
        plain = self.trial(first, duration, workdir / "live-plain")
        tracer = Tracer()
        tracer.install("live")
        try:
            traced = self.trial(first, duration, workdir / "live-traced")
        finally:
            tracer.uninstall()
        tracer.write_jsonl(trace_path(self.name))
        self._count(outcome, plain.result)
        self._count(outcome, traced.result)
        counts = traced.result.results
        latency = counts["latency_ms"]
        cpu, wall = traced.client_cpu_s, traced.wall_s
        plain_per_op = plain.client_cpu_s / plain.result.results["issued"]
        outcome.metrics = {
            **phases,
            **tracer.metrics(),
            **run_drivers(workdir, 1.0 / SIZES[size]),
            "live.harness_overhead_s": wall - duration,
            "live.client_cpu_share": cpu / wall,
            "live.server_cpu_s": traced.server_cpu_s,
            "live.issued_ratio": counts["issued"] / (LIVE_RATE_PER_S * duration),
            "live.completed_share": counts["completed"] / counts["issued"],
            "live.timeouts": counts["timeouts"],
            "live.rejected": counts["rejected"],
            "live.max_server_share": max(counts["sent_per_server"].values())
            / sum(counts["sent_per_server"].values()),
            "live.p50_ms": latency["median"],
            "live.p95_ms": latency["p95"],
            "live.p99_ms": latency["p99"],
            "live.measured_count": latency["count"],
            "trace.overhead_share": (cpu / counts["issued"] - plain_per_op) / plain_per_op,
            "trace.unattributed_share": (cpu - tracer.attributed_s()) / cpu,
        }
        return outcome


def trace_path(name: str) -> Path:
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    return results / f"trace_{name}.jsonl"


_FLAT_MODULES = ("repro.simulator", "repro.simulator.simulation")
_CLUSTER_MODULES = ("repro.cluster.cluster", "repro.experiments.common")

WORKLOADS = {
    workload.name: workload
    for workload in (
        SimWorkload("flat_c3", _flat(30_000), "LOR", "sim", _FLAT_MODULES),
        SimWorkload(
            "flat_scale",
            _flat(120_000, kernel="batched", rng="block", metrics_mode="streaming"),
            "LOR",
            "sim",
            _FLAT_MODULES,
        ),
        SimWorkload("cluster_read", _cluster("read_heavy"), "DS", "cluster", _CLUSTER_MODULES),
        SimWorkload("cluster_update", _cluster("update_heavy"), "DS", "cluster", _CLUSTER_MODULES),
        SweepWorkload(),
        LiveWorkload(),
    )
}
