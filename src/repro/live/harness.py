"""Trial orchestration for the live backend.

:func:`run_trial` runs one live trial in the cluster-test-script shape:
start ``num_servers`` replica server processes on localhost (port 0,
each reporting its port over a pipe), drive open-loop load through
:class:`~repro.live.client.LiveLoadClient` for ``duration_s`` seconds
while loop timers send the scenario's edges over the control channel,
then trim the first ``warmup_s`` and last ``cooldown_s`` of completions
and record what remains into the streaming
:class:`~repro.analysis.histogram.LatencyHistogram`.

The servers are forked from the harness (``multiprocessing``'s ``fork``
context), not exec'd as fresh interpreters: each is still its own OS
process, with its own GIL, event loop and seeded ``random.Random``, and
runs :func:`repro.live.server.serve`, the function behind
``python -m repro.live.server``.  Forking skips an interpreter start and
its imports per server, which was nearly all of a trial's fixed cost.
They are forked before the harness starts its event loop, so none
inherits a running loop.  On Python 3.12 and later, ``os.fork`` in a
process with more than one thread raises a ``DeprecationWarning``; numpy's
OpenBLAS keeps such a thread here.  The sweep runner's
``ProcessPoolExecutor`` already forks this same numpy-loaded image on
Linux, and a forked server never calls into BLAS, so it never needs a lock
that thread could hold.

Scenario strings are the *simulator's* scenario names: the harness fills
in knob defaults from the same registry (:data:`repro.scenarios.SCENARIOS`)
and checks the knobs through a simulator config of the trial, so a live
``slow-node`` trial and a simulated one share defaults and validation.
Underscores are accepted and normalized (``slow_node`` == ``slow-node``).
The live backend supports ``baseline``, ``slow-node``, ``gc-storm``, and
``crash-recovery``; the rest describe simulator-only mechanisms (network
jitter models, demand skew) and are rejected with a clear error.
``slow-node`` and ``crash-recovery`` replay the simulator component's own
timeline (:func:`scenario_schedule`); ``gc-storm``, the one live-specific
mapping, draws its pauses up front (:func:`trial_timeline`).

Each trial writes a self-describing artifact directory::

    <out_dir>/payload.json      config + results + digest + provenance
    <out_dir>/histogram.json    LatencyHistogram.to_dict() of trimmed latencies
    <out_dir>/server_load.json  per-server counters and bucketed load series

``payload.json``'s digest covers **config + results only** — wall-clock
and host provenance live outside the digest domain (mirroring
``SweepResult.digest()``), so re-serializing the same trial at a
different time on a different host compares equal.
"""

from __future__ import annotations

import asyncio
import functools
import json
import multiprocessing
import os
import socket
import sys
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field, fields
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from pathlib import Path
from typing import IO, Any, Mapping

import numpy as np

from ..analysis.histogram import LatencyHistogram
from ..controls.spec import ControlSpec
from ..runner.spec import content_hash
from ..scenarios import SCENARIOS, ScriptedComponent, build_scenario
from ..scenarios.components import Edge
from ..simulator.simulation import SimulationConfig, check_numbers
from ..strategies.spec import StrategySpec
from .client import LiveClientResult, LiveLoadClient
from .protocol import FrameProtocol, encode_message
from .server import serve

__all__ = [
    "LIVE_SCENARIOS",
    "LiveTrialConfig",
    "LiveTrialResult",
    "build_payload",
    "payload_digest",
    "run_trial",
    "scenario_schedule",
    "trial_timeline",
    "write_artifacts",
]

#: Scenarios the live control channel can express.
LIVE_SCENARIOS = ("baseline", "slow-node", "gc-storm", "crash-recovery")

#: Version tag written into every payload.  v2: ``latency_ms`` starts at the
#: time an operation was *due* (v1: at the time the client issued it) and
#: ``slip_ms`` reports how far apart the two were.
PAYLOAD_SCHEMA = "live-trial-v2"


@dataclass(frozen=True)
class LiveTrialConfig:
    """One live trial, canonicalized exactly like ``SimulationConfig``."""

    strategy: str = "c3"
    failure_detector: str | None = None
    hedging: str | None = None
    scenario: str = "baseline"
    scenario_params: Mapping[str, Any] = field(default_factory=dict)
    num_servers: int = 3
    replication_factor: int = 3
    duration_s: float = 10.0
    warmup_s: float = 1.0
    cooldown_s: float = 0.5
    arrival_rate_per_s: float = 200.0
    base_service_ms: float = 4.0
    concurrency: int = 4
    queue_capacity: int = 10_000
    read_fraction: float = 1.0
    request_timeout_ms: float = 2_000.0
    seed: int = 42
    histogram_relative_error: float = 0.01

    def __post_init__(self) -> None:
        object.__setattr__(self, "strategy", StrategySpec.parse(self.strategy).canonical())
        if self.failure_detector is not None:
            object.__setattr__(
                self,
                "failure_detector",
                ControlSpec.parse(self.failure_detector, kind="detector").canonical(),
            )
        if self.hedging is not None:
            object.__setattr__(
                self, "hedging", ControlSpec.parse(self.hedging, kind="hedge").canonical()
            )
        name = self.scenario.replace("_", "-")
        if name not in LIVE_SCENARIOS:
            raise ValueError(
                f"scenario {self.scenario!r} is not supported by the live backend; "
                f"choose one of {', '.join(LIVE_SCENARIOS)}"
            )
        object.__setattr__(self, "scenario", name)
        params = {**SCENARIOS.get(name).param_defaults(), **self.scenario_params}
        object.__setattr__(self, "scenario_params", params)
        check_numbers(self)
        for name in (
            "arrival_rate_per_s", "base_service_ms", "request_timeout_ms", "concurrency", "queue_capacity"
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError(f"read_fraction must be in [0, 1], got {self.read_fraction}")
        if self.num_servers < 1:
            raise ValueError(f"num_servers must be >= 1, got {self.num_servers}")
        if not 1 <= self.replication_factor <= self.num_servers:
            raise ValueError(
                f"replication_factor must be in [1, {self.num_servers}], "
                f"got {self.replication_factor}"
            )
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {self.duration_s}")
        if self.warmup_s < 0 or self.cooldown_s < 0:
            raise ValueError("warmup_s and cooldown_s must be non-negative")
        if self.warmup_s + self.cooldown_s >= self.duration_s:
            raise ValueError(
                f"warmup_s + cooldown_s ({self.warmup_s + self.cooldown_s}) must leave a "
                f"measurement window inside duration_s ({self.duration_s})"
            )
        # The timeline is the simulator's, whose config checks every knob, so a
        # knob it rejects (a target outside the cluster, say) fails here alike.
        scenario_schedule(self)

    def config_payload(self) -> dict[str, Any]:
        """Every field, JSON-serializable, canonical strings throughout."""
        payload: dict[str, Any] = {"schema": PAYLOAD_SCHEMA}
        for item in fields(self):
            payload[item.name] = getattr(self, item.name)
        payload["scenario_params"] = dict(self.scenario_params)
        return payload


@dataclass
class LiveTrialResult:
    """Everything one trial produced, as written to its artifact dir."""

    config: LiveTrialConfig
    results: dict[str, Any]
    histogram: LatencyHistogram
    server_stats: list[dict[str, Any]]
    out_dir: Path
    payload: dict[str, Any]


def payload_digest(payload: Mapping[str, Any]) -> str:
    """sha256 over the payload's config + results — provenance excluded.

    Mirrors ``SweepResult.digest()``: wall-clock timestamps, hostnames,
    and interpreter versions are recorded for humans but never hashed, so
    two serializations of the same trial compare equal regardless of when
    or where they were written.
    """
    return content_hash({"config": payload["config"], "results": payload["results"]})


def build_payload(
    config_payload: Mapping[str, Any],
    results: Mapping[str, Any],
    provenance: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble a trial payload: digest over config+results, then provenance.

    ``provenance`` defaults to this process's wall clock / host /
    interpreter; pass an explicit mapping to reproduce a recorded one.
    """
    payload: dict[str, Any] = {"config": dict(config_payload), "results": dict(results)}
    payload["digest"] = payload_digest(payload)
    if provenance is None:
        provenance = {
            "recorded_at_unix": time.time(),
            "host": socket.gethostname(),
            "python": sys.version.split()[0],
        }
    payload["provenance"] = dict(provenance)
    return payload


def write_artifacts(
    out_dir: "str | Path",
    payload: Mapping[str, Any],
    histogram: LatencyHistogram,
    server_stats: "list[dict[str, Any]] | None" = None,
) -> Path:
    """Write the per-trial artifact directory and return its path."""
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    (path / "payload.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (path / "histogram.json").write_text(
        json.dumps(histogram.to_dict(), sort_keys=True) + "\n", encoding="utf-8"
    )
    (path / "server_load.json").write_text(
        json.dumps({"servers": server_stats or []}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


# ------------------------------------------------------------------ scenario
def scenario_schedule(config: LiveTrialConfig) -> list[Edge]:
    """The scenario's scripted control ops: ``(at_ms, server_id, op)``.

    These are the simulator's own edges for the same knobs and server count
    (:meth:`ScriptedComponent.edges`), in the order its event loop fires
    them.  ``gc-storm`` is stochastic and has none; its pauses are drawn by
    :func:`trial_timeline`.  Times are relative to trial start.
    """
    simulated = SimulationConfig(
        num_servers=config.num_servers,
        replication_factor=config.replication_factor,
        scenario=config.scenario,
        scenario_params=dict(config.scenario_params),
    )
    edges = [
        edge
        for component in build_scenario(simulated).components
        if isinstance(component, ScriptedComponent)
        for edge in component.edges(config.num_servers)
    ]
    return sorted(edges, key=lambda edge: edge[0])


def trial_timeline(config: LiveTrialConfig) -> list[Edge]:
    """Every control op of the trial, sorted stably by time: :func:`scenario_schedule`'s
    edges, and gc-storm's Poisson-timed pauses on random servers.

    Each pause draws its gap, then its server, then its duration from
    ``default_rng(seed + 99_991)``; the gaps add up from trial start, and the
    first at or past ``duration_s`` ends the storm.  Where the simulator slows
    a server by ``slowdown_factor``, a live episode is the server model's
    crash/restore stall, as a cluster node's GC pause is.
    """
    edges = scenario_schedule(config)
    if config.scenario == "gc-storm":
        mean_gap = float(config.scenario_params["mean_interarrival_ms"])
        mean_duration = float(config.scenario_params["mean_duration_ms"])
        rng = np.random.default_rng(config.seed + 99_991)
        at_ms = float(rng.exponential(mean_gap))
        while at_ms < config.duration_s * 1000.0:
            sid = int(rng.integers(config.num_servers))
            edges.append((at_ms, sid, {"op": "pause", "duration_ms": float(rng.exponential(mean_duration))}))
            at_ms += float(rng.exponential(mean_gap))
    return sorted(edges, key=lambda edge: edge[0])


# ------------------------------------------------------------------- servers
def _server_process(config: LiveTrialConfig, sid: int, port_out: Connection, stderr_fd: int) -> None:
    """Body of forked server ``sid``: serve until ``shutdown``, port to ``port_out``.

    Its stderr goes to an unnamed file, not a pipe: nobody would read a pipe
    once the port is in, and a server that filled one would block on its
    next write and never exit.
    """
    os.dup2(stderr_fd, 2)
    # ``sys.stderr`` need not write to fd 2 (a test runner may capture it), so
    # it is rebound too: a traceback in the child then lands in the file.
    sys.stderr = open(2, "w", buffering=1, errors="backslashreplace", closefd=False)
    serve(
        port_out.send,
        sid,
        base_service_ms=config.base_service_ms,
        concurrency=config.concurrency,
        queue_capacity=config.queue_capacity,
        seed=config.seed * 10_007 + sid + 1,
    )


def _fork_servers(config: LiveTrialConfig, processes: list[BaseProcess]) -> list[int]:
    """Fork every server, then return their ports in server order.

    Each child joins ``processes`` the moment it exists, so the caller can
    reap it whatever goes wrong after — here or in a sibling.
    """
    fork = multiprocessing.get_context("fork")
    channels: list[tuple[Connection, IO[bytes]]] = []
    try:
        for sid in range(config.num_servers):
            port_in, port_out = fork.Pipe(duplex=False)
            stderr = tempfile.TemporaryFile()
            channels.append((port_in, stderr))
            try:
                process = fork.Process(
                    target=_server_process, args=(config, sid, port_out, stderr.fileno()), daemon=True
                )
                process.start()
            finally:
                # Only the child keeps the writing end, so the pipe reads EOF
                # once that child dies, and no later sibling inherits it.
                port_out.close()
            processes.append(process)
        deadline = time.monotonic() + 15.0
        ports = []
        for sid, (port_in, stderr) in enumerate(channels):
            if not port_in.poll(max(0.0, deadline - time.monotonic())):
                raise RuntimeError(f"server {sid} did not report a port within 15s")
            try:
                ports.append(port_in.recv())
            except EOFError:
                text = os.pread(stderr.fileno(), 4096, 0).decode("utf-8", "replace")
                raise RuntimeError(f"server {sid} failed to start: stderr={text!r}") from None
        return ports
    finally:
        for port_in, stderr in channels:
            port_in.close()
            stderr.close()


def _join(processes: list[BaseProcess], timeout_s: float) -> None:
    deadline = time.monotonic() + timeout_s
    for process in processes:
        process.join(max(0.0, deadline - time.monotonic()))


def _reap(processes: list[BaseProcess], asked_to_exit: bool) -> None:
    """Wait for every server to end: 5 s for those asked to, then SIGTERM, then SIGKILL."""
    if asked_to_exit:
        _join(processes, 5.0)
    for process in processes:
        if process.exitcode is None:
            process.terminate()
    _join(processes, 5.0)
    for process in processes:
        if process.exitcode is None:
            process.kill()
            process.join()


# --------------------------------------------------------------------- trial
def _control_protocol(acks: deque[asyncio.Future]) -> FrameProtocol:
    """A control connection: each ack answers the oldest op in ``acks``, and
    losing it answers every op with an ``error``."""

    def answer(message: dict) -> None:
        if acks:
            acks.popleft().set_result(message)

    def on_lost() -> None:
        while acks:
            answer({"error": "control connection lost"})

    return FrameProtocol(answer, on_lost)


async def _acked(sent: list[tuple[int, dict[str, Any], asyncio.Future]]) -> list[dict]:
    """The ack of each ``(server_id, op, ack)`` in ``sent``, awaited together for
    up to 10 s; one missing or carrying ``error`` fails the trial, naming both."""
    if sent:
        await asyncio.wait([ack for _, _, ack in sent], timeout=10.0)
    acks = [ack.result() if ack.done() else {"error": "no ack within 10 s"} for _, _, ack in sent]
    for (sid, op, _), ack in zip(sent, acks):
        if "error" in ack:
            raise RuntimeError(f"server {sid} failed control op {op['op']!r}: {ack['error']}")
    return acks


async def _drive(
    config: LiveTrialConfig, ports: list[int]
) -> tuple[LiveClientResult, list[tuple[float, float]], float, list[dict[str, Any]]]:
    """Load the running servers, then read their stats and shut them down.

    Returns the load result, the ``(completed_at_ms, latency_ms)`` pairs,
    the trial's start on the client clock, and each server's stats.
    """
    loop = asyncio.get_running_loop()
    control: list[tuple[asyncio.Transport, deque[asyncio.Future]]] = []
    try:
        for port in ports:
            acks: deque[asyncio.Future] = deque()
            transport, _ = await loop.create_connection(
                functools.partial(_control_protocol, acks), "127.0.0.1", port
            )
            control.append((transport, acks))

        def send(sid: int, op: dict[str, Any]) -> tuple[int, dict[str, Any], asyncio.Future]:
            transport, acks = control[sid]
            ack = loop.create_future()
            if transport.is_closing():  # a closed connection answers nothing
                ack.set_result({"error": "control connection closed"})
            else:
                acks.append(ack)
                transport.write(encode_message({"t": "ctl", **op}))
            return sid, op, ack

        completions: list[tuple[float, float]] = []
        client = LiveLoadClient(
            [("127.0.0.1", port) for port in ports],
            strategy=config.strategy,
            failure_detector=config.failure_detector,
            hedging=config.hedging,
            replication_factor=config.replication_factor,
            arrival_rate_per_s=config.arrival_rate_per_s,
            read_fraction=config.read_fraction,
            request_timeout_ms=config.request_timeout_ms,
            seed=config.seed,
            on_complete=lambda at_ms, latency_ms: completions.append((at_ms, latency_ms)),
        )
        await client.connect()
        # The timeline runs on the client's clock, as completion times and the
        # trim window do.  Its edges are a chain of timers, each armed by the
        # one before, so edges due at one time go out in the timeline's order.
        t0_ms = client.now_ms()
        edges = iter(trial_timeline(config))
        sent: list[tuple[int, dict[str, Any], asyncio.Future]] = []
        timer: asyncio.TimerHandle | None = None

        def fire_next(edge: Edge | None = None) -> None:
            nonlocal timer
            if edge is not None:
                sent.append(send(edge[1], edge[2]))
            if (edge := next(edges, None)) is not None:
                timer = client.call_at(t0_ms + edge[0], fire_next, edge)

        fire_next()
        try:
            load = await client.run(config.duration_s)
        finally:
            if timer is not None:
                timer.cancel()
            await client.close()

        await _acked(sent)
        stats = await _acked([send(sid, {"op": "stats"}) for sid in range(config.num_servers)])
        server_stats = [ack.get("stats", {}) for ack in stats]
        await _acked([send(sid, {"op": "shutdown"}) for sid in range(config.num_servers)])
    finally:
        for transport, _ in control:
            transport.close()
    return load, completions, t0_ms, server_stats


def run_trial(config: LiveTrialConfig, out_dir: "str | Path") -> LiveTrialResult:
    """Run one live trial end-to-end and write its artifact directory.

    The servers are forked before the event loop starts, so none inherits a
    running loop, and every one has ended when this returns or raises.
    """
    out_dir = Path(out_dir)
    processes: list[BaseProcess] = []
    shut_down = False
    started = time.time()
    try:
        ports = _fork_servers(config, processes)
        load, completions, t0_ms, server_stats = asyncio.run(_drive(config, ports))
        shut_down = True
    finally:
        _reap(processes, shut_down)

    # ---------------------------------------------------- trim + histogram
    window_start = t0_ms + config.warmup_s * 1000.0
    window_end = t0_ms + (config.duration_s - config.cooldown_s) * 1000.0
    histogram = LatencyHistogram(relative_error=config.histogram_relative_error)
    trimmed = 0
    for completed_at, latency in completions:
        if window_start <= completed_at <= window_end:
            histogram.record(latency)
            trimmed += 1
    window_s = (window_end - window_start) / 1000.0
    summary = histogram.summarize()
    results: dict[str, Any] = {
        "issued": load.issued,
        "completed": load.completed,
        "timeouts": load.timeouts,
        "rejected": load.rejected,
        "backpressure": load.backpressure,
        "parked": load.parked,
        "hedges_fired": load.hedges_fired,
        "hedges_won": load.hedges_won,
        "slip_ms": load.slip_ms,
        "trimmed_count": trimmed,
        "measured_window_s": window_s,
        "throughput_rps": trimmed / window_s if window_s > 0 else 0.0,
        "latency_ms": {
            "count": summary.count,
            "mean": summary.mean,
            "median": summary.median,
            "p95": summary.p95,
            "p99": summary.p99,
            "p999": summary.p999,
            "min": summary.minimum if summary.count else 0.0,
            "max": summary.maximum if summary.count else 0.0,
        },
        "sent_per_server": {str(k): v for k, v in sorted(load.sent_per_server.items())},
        "histogram_digest": histogram.digest(),
    }
    payload = build_payload(
        config.config_payload(),
        results,
        provenance={
            "recorded_at_unix": started,
            "wall_time_s": time.time() - started,
            "host": socket.gethostname(),
            "python": sys.version.split()[0],
        },
    )
    write_artifacts(out_dir, payload, histogram, server_stats)
    return LiveTrialResult(
        config=config,
        results=results,
        histogram=histogram,
        server_stats=server_stats,
        out_dir=out_dir,
        payload=payload,
    )
