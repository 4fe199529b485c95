"""End-to-end assembly of the §6 flat simulation.

:class:`SimulationConfig` captures the parameters of one run (number of
servers/clients, utilization, fluctuation interval, strategy, …) with
defaults matching the paper;  :class:`ReplicaSelectionSimulation` wires the
servers, clients, selectors, fluctuation process and workload generator
together and runs the event loop until every generated request completes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Hashable, Mapping

import numpy as np

from ..controls import ControlSpec
from ..core.config import C3Config
from ..scenarios.processes import BimodalFluctuation
from ..strategies import StrategySpec
from .client import SimClient
from .engine import EventLoop, SimulationError
from .metrics import METRICS_MODES, MetricsCollector, SimulationResult
from .network import ConstantLatency, NetworkModel
from .request import Request
from .server import DownServerTracker, SimServer, server_state_reader
from .workload import RNGS, DemandSkew, WorkloadGenerator, replica_groups

__all__ = ["KERNELS", "RNGS", "SimulationConfig", "ReplicaSelectionSimulation", "run_simulation"]


class ObjectEngine:
    """``kernel="object"``: every event is a callback on the shared loop.

    The engine interface :meth:`ReplicaSelectionSimulation.drive` runs:
    ``start()`` schedules the first arrival, ``run_slice(until)`` processes
    events up to a time, and ``finish()`` ends the run.  Either engine keeps
    its counts on the servers, clients, selectors and metrics collector
    themselves, which the driver reads between slices.
    """

    def __init__(self, sim: "ReplicaSelectionSimulation") -> None:
        self.sim = sim

    def run(self) -> SimulationResult:
        return self.sim.drive(self)

    def start(self) -> None:
        assert self.sim.generator is not None
        self.sim.generator.start()

    def run_slice(self, until: float) -> None:
        self.sim.loop.run(until=until)

    def finish(self) -> None:
        """Nothing to settle: every count is already on its object."""


def _object_kernel():
    return SimServer, SimClient, ObjectEngine


def _batched_kernel():
    # Imported on first use: the package's largest module, and no
    # object-path run needs it.
    from .kernel import BatchedKernel, KernelClient, KernelServer

    return KernelServer, KernelClient, BatchedKernel


#: ``SimulationConfig.kernel`` → a callable returning (server class, client
#: class, engine class); the two kernels are digest-identical by construction.
KERNELS = {"object": _object_kernel, "batched": _batched_kernel}


@dataclass(slots=True)
class SimulationConfig:
    """Parameters of one flat-simulator run.

    The defaults mirror §6 of the paper, scaled down in request count so a
    run completes in seconds: 50 servers, RF 3, 4-way service concurrency,
    exponential service times with a 4 ms mean, 0.25 ms one-way network
    latency, 10 % read repair, bimodal service-rate fluctuation with D = 3.

    A named ``scenario`` (see :mod:`repro.scenarios`) replaces the legacy
    bimodal fluctuation fields with a composable perturbation schedule;
    ``scenario_params`` overrides that scenario's knobs.

    ``metrics_mode`` selects how latencies are collected: ``"exact"``
    (per-request lists, exact summaries — the default) or ``"streaming"``
    (fixed-memory log-bucketed histograms with relative error
    ``histogram_relative_error`` — the scale-mode path for long-horizon /
    million-request runs).

    ``strategy`` accepts a registered name (``"C3"``), a parameterized spec
    string (``"c3:cubic_c=4e-4,b=3"``), a mapping (``{"name": "c3",
    "params": {...}}``), or a :class:`~repro.strategies.StrategySpec`; it is
    normalized to the canonical spec string at construction, so bare names
    stay byte-identical in payloads, cache keys, and golden digests.

    ``kernel`` names an entry of :data:`KERNELS`, the engine: ``"object"`` (the
    default — Event objects calling client/server methods) or ``"batched"``
    (the typed-tuple hot-path kernel in :mod:`repro.simulator.kernel`,
    several times faster and digest-identical by construction).

    ``rng`` names an entry of :data:`RNGS`, the draw regime: ``"v1"`` (the
    default — scalar per-arrival/per-decision draws, byte-identical to every
    pre-existing digest and cache key) or ``"block"`` (workload trio and
    selector draws served from block-drawn variates — digest-identical
    across kernels but a *different digest domain* than ``"v1"`` because the
    stream positions move; only a few per cent faster since the scalar
    draws skip numpy's Python dispatch, see :mod:`repro.core.samplers`).

    ``failure_detector`` and ``hedging`` address registered controls (see
    :mod:`repro.controls`) through the same spec grammar.  The defaults —
    the ``"binary"`` ground-truth detector and no hedging — reproduce the
    legacy simulator byte-for-byte; ``failure_detector="phi:threshold=8"``
    switches liveness to phi-accrual suspicion and
    ``hedging="hedge:quantile=0.95"`` re-issues slow reads to another
    replica at the configured latency quantile.
    """

    num_servers: int = 50
    replication_factor: int = 3
    num_clients: int = 150
    num_requests: int = 20_000
    mean_service_time_ms: float = 4.0
    server_concurrency: int = 4
    utilization: float = 0.7
    fluctuation_interval_ms: float = 100.0
    fluctuation_multiplier: float = 3.0
    fluctuation_enabled: bool = True
    network_delay_ms: float = 0.25
    read_repair_probability: float = 0.1
    strategy: "str | Mapping[str, Any] | StrategySpec" = "C3"
    seed: int = 0
    scenario: str | None = None
    scenario_params: dict = field(default_factory=dict)
    demand_skew: DemandSkew | None = None
    record_size: int = 1024
    read_fraction: float = 1.0
    max_sim_time_ms: float = 600_000.0
    metrics_mode: str = "exact"
    histogram_relative_error: float = 0.01
    failure_detector: "str | Mapping[str, Any] | ControlSpec" = "binary"
    hedging: "str | Mapping[str, Any] | ControlSpec | None" = None
    kernel: str = "object"
    rng: str = "v1"

    def __post_init__(self) -> None:
        # Normalize any accepted strategy form to the canonical spec string
        # (validating the name and params in the process): "c3" -> "C3",
        # "c3:cubic_c=2e-4" -> "C3:gamma=0.0002", bare names unchanged.
        self.strategy = StrategySpec.parse(self.strategy).canonical()
        # Control references normalize the same way; the defaults ("binary"
        # detection, no hedging) are additionally omitted from runner
        # payloads so legacy cache keys and digests stay stable.
        self.failure_detector = ControlSpec.parse(self.failure_detector, kind="detector").canonical()
        if self.hedging is not None:
            self.hedging = ControlSpec.parse(self.hedging, kind="hedge").canonical()
        if self.num_servers < self.replication_factor:
            raise ValueError("num_servers must be >= replication_factor")
        if self.num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        if self.num_requests < 0:
            raise ValueError("num_requests must be >= 0")
        if not 0.0 < self.utilization <= 1.5:
            raise ValueError("utilization must be in (0, 1.5]")
        if self.mean_service_time_ms <= 0:
            raise ValueError("mean_service_time_ms must be positive")
        if self.metrics_mode not in METRICS_MODES:
            raise ValueError(
                f"unknown metrics_mode {self.metrics_mode!r}; choose one of {METRICS_MODES}"
            )
        if not 0.0 < self.histogram_relative_error < 1.0:
            raise ValueError("histogram_relative_error must be in (0, 1)")
        if self.kernel not in KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}; choose one of {tuple(KERNELS)}")
        if self.rng not in RNGS:
            raise ValueError(f"unknown rng {self.rng!r}; choose one of {tuple(RNGS)}")
        if self.scenario is not None:
            # Checked here, against num_servers, so no sweep trial key is handed out for a
            # scenario that cannot run; scenario_params stays as given (it is hashed).
            from ..scenarios.registry import SCENARIOS, check_scenario

            self.scenario = SCENARIOS.resolve(self.scenario).name
            check_scenario(self)
        elif self.scenario_params:
            raise ValueError("scenario_params given without a scenario name")

    @property
    def strategy_spec(self) -> StrategySpec:
        """The canonical :class:`StrategySpec` of this run's strategy."""
        return StrategySpec.parse(self.strategy)

    @property
    def failure_detector_spec(self) -> ControlSpec:
        """The canonical :class:`ControlSpec` of this run's failure detector."""
        return ControlSpec.parse(self.failure_detector, kind="detector")

    @property
    def hedging_spec(self) -> ControlSpec | None:
        """The canonical :class:`ControlSpec` of the hedging policy, if any."""
        if self.hedging is None:
            return None
        return ControlSpec.parse(self.hedging, kind="hedge")

    @property
    def effective_rate_multiplier(self) -> float:
        """Average per-slot service-rate multiplier under the active perturbation.

        With a named scenario, the scenario declares its own factor (see
        :func:`repro.scenarios.registry.scenario_rate_factor`); otherwise the
        legacy bimodal-fluctuation fields apply.
        """
        if self.scenario is not None:
            from ..scenarios.registry import scenario_rate_factor

            return scenario_rate_factor(self)
        if not self.fluctuation_enabled:
            return 1.0
        return (1.0 + self.fluctuation_multiplier) / 2.0

    @property
    def system_capacity_per_ms(self) -> float:
        """Mean system service capacity in requests per millisecond."""
        per_slot_rate = self.effective_rate_multiplier / self.mean_service_time_ms
        return self.num_servers * self.server_concurrency * per_slot_rate

    @property
    def target_arrival_rate_per_ms(self) -> float:
        """Arrival rate implied by the utilization."""
        return self.utilization * self.system_capacity_per_ms

    def copy(self, **overrides) -> "SimulationConfig":
        """A copy of this config with ``overrides`` applied."""
        return replace(self, **overrides)


class ReplicaSelectionSimulation:
    """Builds and runs one flat-simulator scenario.

    Lifecycle: build → run → release.  A simulation runs once; at the end
    of :meth:`run` it unhooks what ``_build`` wired in a circle and releases
    its event loop, so dropping the last reference frees the whole graph by
    reference counting.  Clients, selectors, servers, metrics and the loop's
    clock and event count stay readable afterwards.
    """

    def __init__(self, config: SimulationConfig) -> None:
        self.config = config
        self.loop = EventLoop()
        self.rng = np.random.default_rng(config.seed)
        self.metrics = MetricsCollector(
            metrics_mode=config.metrics_mode,
            histogram_relative_error=config.histogram_relative_error,
        )
        self.network: NetworkModel = ConstantLatency(config.network_delay_ms)

        self.servers: dict[Hashable, SimServer] = {}
        self.clients: list[SimClient] = []
        self.groups = replica_groups(config.num_servers, config.replication_factor)
        self.down_tracker = DownServerTracker()
        self.fluctuation: BimodalFluctuation | None = None
        self.scenario = None  # Scenario instance when config.scenario is set
        self._scenario_ctx = None
        self.generator: WorkloadGenerator | None = None
        self._ran = False
        self._build()

    # ---------------------------------------------------------------- assembly
    def _build(self) -> None:
        cfg = self.config
        # Per-simulation request-id counter: ids always start at 0 for a
        # run, so pooled workers that reuse a process hand out exactly the
        # ids a fresh serial run would (reproducible traces/artifacts).
        self._request_ids = itertools.count()
        server_cls, client_cls, self._engine_cls = KERNELS[cfg.kernel]()
        draw_source, selector_rng_adapter = RNGS[cfg.rng]
        for sid in range(cfg.num_servers):
            server_rng = np.random.default_rng(self.rng.integers(2**63))
            server = server_cls(
                loop=self.loop,
                server_id=sid,
                base_service_time_ms=cfg.mean_service_time_ms,
                concurrency=cfg.server_concurrency,
                rng=server_rng,
                on_complete=None,
                down_tracker=self.down_tracker,
            )
            server.on_complete = self._make_completion_handler()
            self.servers[sid] = server

        c3_config = C3Config().with_clients(cfg.num_clients)
        strategy_spec = cfg.strategy_spec
        # One detector instance serves every client (liveness is cluster-wide
        # knowledge); hedging policies are per-client, like the coordinator's
        # speculative-retry windows.  Neither construction draws randomness,
        # so the RNG child-stream order below is unchanged from the legacy
        # build and seeds stay digest-compatible.
        self.failure_detector = cfg.failure_detector_spec.build(
            down_tracker=self.down_tracker, servers=self.servers
        )
        hedging_spec = cfg.hedging_spec
        server_state_fn = server_state_reader(self.servers)
        for cid in range(cfg.num_clients):
            selector_rng = np.random.default_rng(self.rng.integers(2**63))
            if selector_rng_adapter is not None:
                # Selector draws come from the same child stream, but served
                # through the regime's adapter — identical on both kernels, a
                # different digest domain than the bare Generator.
                selector_rng = selector_rng_adapter(selector_rng)
            selector = strategy_spec.build(
                rng=selector_rng,
                server_state_fn=server_state_fn,
                c3_config=c3_config,
            )
            client_rng = np.random.default_rng(self.rng.integers(2**63))
            client = client_cls(
                loop=self.loop,
                client_id=cid,
                selector=selector,
                servers=self.servers,
                network=self.network,
                metrics=self.metrics,
                read_repair_probability=cfg.read_repair_probability,
                rng=client_rng,
                down_tracker=self.down_tracker,
                failure_detector=self.failure_detector,
                hedging=hedging_spec.build() if hedging_spec is not None else None,
                id_source=self._request_ids,
            )
            self.clients.append(client)

        scenario_rng = None
        if cfg.scenario is not None:
            # A named scenario replaces the legacy fluctuation process
            # entirely (its RNG stream occupies the same draw slot, so the
            # workload stream that follows stays aligned across modes).
            scenario_rng = np.random.default_rng(self.rng.integers(2**63))
            from ..scenarios import build_scenario

            self.scenario = build_scenario(cfg)
        elif cfg.fluctuation_enabled:
            fluct_rng = np.random.default_rng(self.rng.integers(2**63))
            self.fluctuation = BimodalFluctuation(
                loop=self.loop,
                servers=list(self.servers.values()),
                interval_ms=cfg.fluctuation_interval_ms,
                rate_multiplier=cfg.fluctuation_multiplier,
                rng=fluct_rng,
            )

        workload_rng = np.random.default_rng(self.rng.integers(2**63))
        self.generator = WorkloadGenerator(
            loop=self.loop,
            clients=self.clients,
            groups=self.groups,
            rate_per_ms=cfg.target_arrival_rate_per_ms,
            total_requests=cfg.num_requests,
            demand_skew=cfg.demand_skew,
            read_fraction=cfg.read_fraction,
            record_size=cfg.record_size,
            rng=workload_rng,
            id_source=self._request_ids,
            draw_source=draw_source,
        )

        if self.scenario is not None:
            from ..scenarios import ScenarioContext

            self._scenario_ctx = ScenarioContext(
                loop=self.loop,
                servers=[self.servers[sid] for sid in range(cfg.num_servers)],
                rng=scenario_rng,
                simulation=self,
            )

    def _make_completion_handler(self):
        def on_complete(request: Request, feedback, service_time: float) -> None:
            client = self.clients[self._client_index(request.client_id)]
            delay = self.network.one_way_delay(request.server_id, request.client_id)
            self.loop.post(delay, client.on_server_response, request, feedback, service_time)

        return on_complete

    def _client_index(self, client_id: Hashable) -> int:
        # Client ids are assigned densely (0..n-1) by _build.
        return int(client_id)

    # --------------------------------------------------------------------- run
    def run(self) -> SimulationResult:
        """Run the scenario to completion and return the collected metrics."""
        if self._ran:
            raise SimulationError("this simulation already ran; build a new one")
        self._ran = True
        result = self._engine_cls(self).run()
        self._release()
        return result

    def _release(self) -> None:
        """Unhook the callbacks that close ``_build``'s graph into a cycle.

        Servers reach the clients through their completion handlers, the
        arrival process reaches its generator, the scenario context reaches
        the simulation, and every pending event reaches whoever scheduled
        it.  None of these fires again once the run is over.  Stopping the
        fluctuation process returns the servers to nominal speed and with
        that takes back the speed factors they key by the process (a named
        scenario was stopped the same way before the result was built).
        """
        if self.fluctuation is not None:
            self.fluctuation.stop()
        for server in self.servers.values():
            server.on_complete = None
        assert self.generator is not None
        self.generator.process.on_arrival = None
        if self._scenario_ctx is not None:
            self._scenario_ctx.simulation = None
        self.loop.release()

    def drive(self, engine) -> SimulationResult:
        """The one run loop, whichever engine of :data:`KERNELS` executes it."""
        cfg = self.config
        loop = self.loop
        if self.scenario is not None:
            self.scenario.start(self._scenario_ctx)
        elif self.fluctuation is not None:
            self.fluctuation.start()
        engine.start()

        # Perturbation processes may schedule events forever, so the loop is
        # advanced in slices until every data request has completed (or the
        # hard time cap is hit, which indicates an unstable configuration).
        slice_ms = max(10.0, cfg.fluctuation_interval_ms)
        metrics = self.metrics
        while metrics.completed_requests < cfg.num_requests and loop.now < cfg.max_sim_time_ms:
            engine.run_slice(loop.now + slice_ms)

        duration = loop.now
        if self.scenario is not None:
            # Symmetric teardown: restores server speeds/liveness so loop or
            # server objects can be inspected or reused after the run.
            self.scenario.stop()
        engine.finish()
        extra = {
            "config": cfg,
            "clients": len(self.clients),
            "servers": len(self.servers),
            "backlog_remaining": sum(c.selector.pending_backlog() for c in self.clients),
            "parked_remaining": sum(len(c._parked) for c in self.clients),
            "scenario": cfg.scenario,
        }
        return self.metrics.result(duration_ms=duration, strategy=cfg.strategy, extra=extra)


def run_simulation(config: SimulationConfig) -> SimulationResult:
    """Convenience helper: build and run a scenario in one call."""
    return ReplicaSelectionSimulation(config).run()
