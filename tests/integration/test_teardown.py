"""A finished run frees itself without the cycle collector.

Every simulated executor — the flat simulator on the object path, the
batched kernel, and ``cluster/`` — releases its own object graph at the end
of ``run()``.  These tests switch the collector off and then ask it what it
would have had to do: nothing cyclic may be born during a run, and nothing
may be left once the executor and its result are dropped.  The guarantee must
not lean on how a given Python version schedules its collector generations,
so the module is part of the default collection on every CI interpreter.
"""

from __future__ import annotations

import gc
import sys
from contextlib import contextmanager

import pytest

from repro.cluster import CassandraCluster, ClusterConfig
from repro.runner import SweepSpec, config_to_payload, execute_trial
from repro.simulator import ReplicaSelectionSimulation, SimulationConfig, SimulationError

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None

FLAT = dict(num_servers=12, num_clients=24, num_requests=1_500, seed=7)
CLUSTER = dict(num_nodes=6, num_generators=12, duration_ms=400.0, num_keys=500, seed=7)

# Perturbations pulled inside these short runs (~180 ms simulated).
CRASH = dict(
    scenario="crash-recovery",
    scenario_params=dict(first_at_ms=20.0, down_ms=40.0, stagger_ms=30.0),
)
PERMANENT_CRASH = dict(
    scenario="crash-recovery",
    scenario_params=dict(first_at_ms=20.0, down_ms=None, stagger_ms=30.0),
)
GC_STORM = dict(
    scenario="gc-storm",
    scenario_params=dict(mean_interarrival_ms=40.0, mean_duration_ms=10.0),
)
JITTER = dict(scenario="network-jitter", scenario_params=dict(at_ms=30.0))
HEDGE = "hedge:quantile=0.9,min_samples=10"
EAGER_HEDGE = "hedge:quantile=0.5,max_extra=2,min_samples=10"
SPECULATIVE = dict(strategy="DS", hedging="hedge:quantile=0.5")


def flat(**overrides):
    return lambda: ReplicaSelectionSimulation(SimulationConfig(**{**FLAT, **overrides}))


def cluster(**overrides):
    return lambda: CassandraCluster(ClusterConfig(**{**CLUSTER, **overrides}))


EXECUTORS = {
    "flat-object": flat(strategy="C3"),
    "flat-batched": flat(strategy="C3", kernel="batched"),
    "cluster": cluster(strategy="C3"),
}


def record_rate_history(selectors) -> None:
    for selector in selectors:
        selector.record_history = True


def crashed(simulation) -> bool:
    return sum(server.crashes for server in simulation.servers.values()) > 0


def hedged(simulation) -> bool:
    return sum(client.hedges_fired for client in simulation.clients) > 0


def speculated(executor) -> bool:
    return sum(c.speculations_fired for c in executor.coordinators.values()) > 0


def ran_past_the_network_swap(simulation) -> bool:
    return simulation.loop.now > JITTER["scenario_params"]["at_ms"]


def hit_the_time_cap(simulation) -> bool:
    return simulation.metrics.completed_requests < FLAT["num_requests"]


def left_operations_open(executor) -> bool:
    return executor.pending_operations() > 0


def case(name, build, exercised=None):
    """``exercised`` says what the run must have done for the case to count."""
    return pytest.param(build, exercised, id=name)


LEAK_CASES = [
    *(case(name, build) for name, build in EXECUTORS.items()),
    case(
        "flat-batched-block-streaming",
        flat(strategy="C3", kernel="batched", rng="block", metrics_mode="streaming"),
    ),
    case("flat-object-LOR", flat(strategy="LOR")),
    case("flat-object-DS", flat(strategy="DS")),
    case("flat-object-ORA", flat(strategy="ORA")),
    case("flat-batched-ORA", flat(strategy="ORA", kernel="batched")),
    case("flat-object-gc-storm", flat(strategy="C3", **GC_STORM)),
    case("flat-object-crash", flat(strategy="C3", **CRASH), crashed),
    case("flat-batched-crash", flat(strategy="C3", kernel="batched", **CRASH), crashed),
    case(
        "flat-object-network-jitter",
        flat(strategy="C3", **JITTER),
        ran_past_the_network_swap,
    ),
    case("flat-object-hedge", flat(strategy="C3", hedging=HEDGE), hedged),
    case("flat-batched-hedge", flat(strategy="LOR", hedging=HEDGE, kernel="batched"), hedged),
    case(
        "flat-object-phi-crash",
        flat(strategy="C3", failure_detector="phi:threshold=8", **CRASH),
        crashed,
    ),
    case(
        "flat-object-time-cap",
        flat(strategy="C3", utilization=1.4, max_sim_time_ms=60.0),
        hit_the_time_cap,
    ),
    case("cluster-update-heavy", cluster(strategy="C3", workload_mix="update_heavy")),
    case("cluster-DS-speculative", cluster(**SPECULATIVE), speculated),
    case("cluster-ORA-hedge", cluster(strategy="ORA", hedging=EAGER_HEDGE), speculated),
    case(
        "cluster-drain-timeout",
        # The last main-phase slice ends at 400 ms, past the drain deadline.
        cluster(duration_ms=399.0, drain_timeout_ms=0.5, **SPECULATIVE),
        left_operations_open,
    ),
]


@contextmanager
def collector_off():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("build, exercised", LEAK_CASES)
def test_a_finished_run_leaves_nothing_for_the_collector(build, exercised):
    # One unmeasured run goes first: lazy imports and first-call caches in
    # numpy and the standard library make one-time garbage of their own.  It
    # doubles as the witness that the case exercised what it is named for.
    warm = build()
    warm.run()
    assert exercised is None or exercised(warm)
    del warm
    with collector_off():
        executor = build()
        gc.collect()
        result = executor.run()
        assert gc.collect() == 0, "a reference cycle was born and dropped during the run"
        del executor, result
        assert gc.collect() == 0, "the finished run was left to the cycle collector"


def test_the_result_alone_holds_no_executor_state():
    """Dropping the executor first frees it while its result is still in
    use, and the result — cluster operation samples included — then goes
    without the collector too."""
    build = EXECUTORS["cluster"]
    build().run()
    with collector_off():
        executor = build()
        gc.collect()
        result = executor.run()
        del executor
        assert gc.collect() == 0
        assert len(result.extra["operation_samples"]) == result.completed_requests > 0
        del result
        assert gc.collect() == 0


@pytest.mark.parametrize("executor", sorted(EXECUTORS))
def test_a_second_run_raises(executor):
    simulation = EXECUTORS[executor]()
    first = simulation.run()
    with pytest.raises(SimulationError, match="already ran; build a new one"):
        simulation.run()
    # The refusal leaves the finished run as it was.
    assert simulation.loop.now == first.duration_ms


# --------------------------------------------------- post-run inspection
@pytest.mark.parametrize("kernel", ["object", "batched"])
def test_flat_run_stays_inspectable(kernel):
    simulation = flat(strategy="C3", kernel=kernel)()
    record_rate_history(c.selector for c in simulation.clients)
    result = simulation.run()
    loop = simulation.loop
    assert loop.processed_events > 0
    assert loop.now == result.duration_ms
    assert loop.pending_events == 0

    clients = simulation.clients
    assert sum(c.requests_handled for c in clients) == FLAT["num_requests"]
    assert sum(c.responses_handled for c in clients) >= result.completed_requests
    assert sum(c.stats()["selector"]["submitted"] for c in clients) == FLAT["num_requests"]
    busiest = max(clients, key=lambda c: c.requests_handled)
    assert busiest.selector.sending_rates()
    assert any(busiest.selector.rate_history(sid) for sid in simulation.servers)

    servers = simulation.servers.values()
    assert sum(s.requests_completed for s in servers) == sum(result.per_server_completed.values())
    assert all(s.stats()["completed"] == s.requests_completed for s in servers)
    # Like a named scenario's stop(), the release returns servers to nominal speed.
    assert all(s.current_service_time_ms == s.base_service_time_ms for s in servers)
    assert simulation.metrics.completed_requests == result.completed_requests
    assert simulation.generator.requests_generated == FLAT["num_requests"]


def test_scenario_run_restores_servers_and_stays_inspectable():
    simulation = flat(strategy="C3", **PERMANENT_CRASH)()
    result = simulation.run()
    assert simulation.loop.now == result.duration_ms
    assert crashed(simulation)
    # The crashes were permanent; the scenario's stop() brought the servers back.
    assert all(server.is_up for server in simulation.servers.values())
    assert simulation.down_tracker.count == 0


def test_cluster_run_stays_inspectable():
    executor = cluster(strategy="C3")()
    record_rate_history(c.selector for c in executor.coordinators.values())
    result = executor.run()
    loop = executor.loop
    assert loop.processed_events > 0
    assert loop.now == result.duration_ms
    assert loop.pending_events == 0

    coordinators = executor.coordinators.values()
    assert sum(c.operations_executed for c in coordinators) == result.issued_requests
    submitted = sum(c.stats()["selector"]["submitted"] for c in coordinators)
    assert submitted == sum(c.reads_executed for c in coordinators) > 0
    assert any(c.selector.rate_history(nid) for c in coordinators for nid in executor.node_ids)
    assert executor.pending_operations() == 0

    nodes = executor.nodes
    assert sum(n.requests_completed for n in nodes.values()) == sum(result.per_server_completed.values())
    assert result.extra["node_stats"] == {nid: node.stats() for nid, node in nodes.items()}
    assert executor.gossip.total_publishes > 0
    assert sum(g.operations_completed for g in executor.generators) == result.completed_requests
    assert executor.metrics.operations_completed == result.completed_requests


# ------------------------------------------------------------------- memory
def peak_rss_mb() -> float:
    peak = 0 if resource is None else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if peak <= 0:
        pytest.skip("ru_maxrss is unavailable on this platform")
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def test_back_to_back_legs_hold_rss_flat():
    """Six paper-default 30 000-request legs with the collector off: the
    high-water mark settles by the second leg."""
    peaks = []
    with collector_off():
        gc.collect()
        for seed in range(6):
            config = SimulationConfig(strategy="C3", num_requests=30_000, seed=seed)
            ReplicaSelectionSimulation(config).run()
            peaks.append(peak_rss_mb())
            assert gc.collect() == 0
    assert peaks[-1] - peaks[1] < 2.0, peaks


def test_sweep_worker_trials_leave_nothing_behind():
    """What a ``SweepRunner`` pool worker or a ``search`` rung does between
    trials: ``execute_trial`` twenty times in one process."""
    base = SimulationConfig(num_servers=9, num_clients=8, num_requests=400)
    trials = SweepSpec(base=base, grid={"strategy": ["C3", "LOR"]}, seeds=range(10)).trials()
    assert len(trials) == 20
    jobs = [
        {
            "index": trial.index,
            "key": trial.key,
            "params": trial.params,
            "seed": trial.seed,
            "config": config_to_payload(trial.config),
        }
        for trial in trials
    ]
    execute_trial(jobs[0])
    with collector_off():
        gc.collect()
        before = peak_rss_mb()
        for job in jobs:
            payload = execute_trial(job)
            assert payload["trial"]["key"] == job["key"]
            del payload
            assert gc.collect() == 0
        assert peak_rss_mb() - before < 2.0
