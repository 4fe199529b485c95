"""Object-vs-batched kernel equivalence.

The batched kernel (``SimulationConfig(kernel="batched")``) is a pure
performance substitution: it consumes every RNG stream at exactly the same
positions as the object path, so exact-mode runs must be digest-identical
event for event.  These tests pin that contract three ways:

* a curated matrix of configurations covering every selector mode the
  kernel special-cases (LOR dense state, stock selectors such as P2C, the
  C3 scheduler), plus the hard paths — crash/recovery liveness filtering,
  phi-accrual suspicion, hedged reads, read-repair fan-out, backpressure
  parking, demand skew, a mid-run network-delay change, streaming metrics,
  copies outliving their primary (the kernel recycles request slots), a
  long LOR run, every builtin scenario and the legacy fluctuation fields
  on and off — each row also compares every client's and server's
  ``stats()``, every server's RNG state and the metrics collector's counts
  and per-server load series between the two runs, at three instants
  inside the run (loop timers) and after it: the kernel keeps no copy of
  that accounting to hand back at the end, draws no service time before
  the service starts and credits no completion later than it happens;
* a hypothesis property over random small configurations — every builtin
  strategy, hedged or not, on the binary or the phi detector, with or
  without a crash, slow-node or gc-storm scenario, and C3/RR rate-limited
  on one to three clients so that backpressure engages — comparing the same
  digests and mid-run and final ``stats()``, so the equivalence is not an artifact of
  hand-picked parameters.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.simulator import kernel as kernel_module
from repro.simulator.client import SimClient
from repro.simulator.kernel import BatchedKernel, KernelClient
from repro.simulator.simulation import ReplicaSelectionSimulation, SimulationConfig
from repro.simulator.workload import DemandSkew
from repro.strategies.least_outstanding import LeastOutstandingSelector


PLAIN = dict(num_servers=10, num_clients=12, num_requests=1200, seed=7)
HARD = dict(num_servers=10, num_clients=12, num_requests=2000, seed=11)
HEDGED_REUSE = dict(
    hedging="hedge:quantile=0.5,max_extra=2",
    read_repair_probability=0.5,
    scenario="crash-recovery",
)

#: Every selector mode and every rare-path feature the kernel handles.
MATRIX = {
    "plain-lor": dict(PLAIN, strategy="LOR"),
    "plain-p2c": dict(PLAIN, strategy="P2C"),
    "plain-c3": dict(PLAIN, strategy="C3"),
    "plain-rr": dict(PLAIN, strategy="RR"),
    "plain-rand": dict(PLAIN, strategy="RAND"),
    "oracle": dict(PLAIN, strategy="ORA"),
    "snitch": dict(PLAIN, strategy="DS"),
    "crash-c3": dict(HARD, strategy="C3", scenario="crash-recovery"),
    "phi-crash-lor": dict(
        HARD, strategy="LOR", scenario="crash-recovery", failure_detector="phi"
    ),
    "hedge-c3": dict(HARD, strategy="C3", hedging="hedge:quantile=0.9"),
    "hedge-crash-lor": dict(
        HARD, strategy="LOR", scenario="crash-recovery", hedging="hedge:quantile=0.9"
    ),
    "skew-p2c": dict(
        HARD,
        strategy="P2C",
        read_fraction=0.7,
        demand_skew=DemandSkew(client_fraction=0.2, demand_fraction=0.8),
    ),
    # The one-way delay changes (and becomes jittered) mid-run, so ENQUEUE /
    # RESPONSE entries are not pushed in time order: only the heap orders them.
    "jitter-c3": dict(HARD, strategy="C3", scenario="network-jitter"),
    "streaming-c3": dict(HARD, strategy="C3", metrics_mode="streaming"),
    "backpressure-c3": dict(
        PLAIN, strategy="C3:initial_rate=0.1,min_rate=0.1,max_rate=0.1"
    ),
    # Every replica of the only group crashes at once: requests park until
    # the restore drains them through KernelServer._try_start_service.
    "parked-hedge-c3": dict(
        num_servers=3,
        num_clients=6,
        num_requests=1200,
        seed=3,
        strategy="C3",
        scenario="crash-recovery",
        hedging="hedge:quantile=0.9",
        scenario_params={"targets": [0, 1, 2], "down_ms": 300.0, "stagger_ms": 0.0},
    ),
    # Two copies a read and read-repair duplicates around crashes: copies
    # outlive their primary, so the kernel's recycled request slots must not
    # be handed out while a copy can still name its primary's.
    "hedge2-rr-crash-c3": dict(HARD, strategy="C3", **HEDGED_REUSE),
    "hedge2-rr-crash-lor": dict(HARD, strategy="LOR", **HEDGED_REUSE),
    # A long LOR run: the selector's outstanding counts, the load series
    # and the servers' generator states stay equal, mid-run and at the
    # end, across tens of thousands of completions.
    "flush-chunks-lor": dict(
        num_servers=6, num_clients=8, num_requests=32_768, seed=5, strategy="LOR"
    ),
    # The remaining builtin scenarios and the legacy fluctuation fields: the
    # sweep runner executes every trial on the kernel, so every perturbation
    # a sweep can name is pinned here.
    "gc-storm-c3": dict(
        HARD,
        strategy="C3",
        scenario="gc-storm",
        scenario_params={"mean_interarrival_ms": 100.0},
    ),
    "slow-node-lor": dict(HARD, strategy="LOR", scenario="slow-node"),
    # The default spike window starts after this run ends; move it inside.
    "load-spike-c3": dict(
        HARD,
        strategy="C3",
        scenario="load-spike",
        scenario_params={"start_ms": 50.0, "end_ms": 250.0},
    ),
    "bimodal-p2c": dict(PLAIN, strategy="P2C", scenario="bimodal"),
    "heterogeneous-ds": dict(PLAIN, strategy="DS", scenario="heterogeneous"),
    "fluctuation-10ms-c3": dict(PLAIN, strategy="C3", fluctuation_interval_ms=10.0),
    "fluctuation-off-c3": dict(PLAIN, strategy="C3", fluctuation_enabled=False),
    # Paths no other row combines: suspicion-filtered hedge targets, hedge
    # copies accounted through a stock selector's methods, and backlog
    # releases that race a crash into the park.
    "phi-hedge-crash-c3": dict(
        HARD,
        strategy="C3",
        scenario="crash-recovery",
        failure_detector="phi",
        hedging="hedge:quantile=0.9",
    ),
    "hedge-p2c": dict(HARD, strategy="P2C", hedging="hedge:quantile=0.9"),
    "backpressure-crash-rr": dict(
        HARD, strategy="RR:initial_rate=0.5", num_clients=3, scenario="crash-recovery"
    ),
}


def _observe(sim: ReplicaSelectionSimulation) -> list:
    """Arm loop timers at a quarter, half and three quarters of the expected
    arrival span; each appends what code outside the kernel's loop can read
    then: every client's ``stats()`` (the selector's included), LOR's
    per-server ``outstanding()``, every server's ``stats()`` and RNG state
    (the service times drawn so far), the metrics collector's four counts,
    and its per-server load series and completion totals."""
    snapshots: list = []
    metrics = sim.metrics

    def snapshot() -> None:
        snapshots.append(
            (
                sim.loop.now,
                [c.stats() for c in sim.clients],
                [
                    [c.selector.outstanding(sid) for sid in sim.servers]
                    for c in sim.clients
                    if isinstance(c.selector, LeastOutstandingSelector)
                ],
                {sid: s.stats() for sid, s in sim.servers.items()},
                {sid: s.rng.bit_generator.state for sid, s in sim.servers.items()},
                (
                    metrics.completed_requests,
                    metrics.issued_requests,
                    metrics.duplicate_requests,
                    metrics.backpressure_events,
                ),
                {sid: counter.counts().tolist() for sid, counter in metrics._per_server_windows.items()},
                dict(metrics._per_server_completed),
            )
        )

    span = sim.config.num_requests / sim.config.target_arrival_rate_per_ms
    for quarter in (1, 2, 3):
        sim.loop.schedule(span * quarter / 4, snapshot)
    return snapshots


def _run_both(**kw) -> dict:
    runs = {}
    for kernel in ("object", "batched"):
        sim = ReplicaSelectionSimulation(SimulationConfig(kernel=kernel, **kw))
        snapshots = _observe(sim)
        runs[kernel] = (sim, sim.run(), snapshots)
    return runs


def assert_kernels_equivalent(**kw) -> None:
    """Equal digests, and from the same two runs equal client stats (the
    selector's included), server stats and metrics counts, both at loop
    timers inside the run and after it: whatever the kernel writes is the
    owning object's own state, current whenever code outside its loop runs."""
    (obj_sim, obj_result, obj_seen), (bat_sim, bat_result, bat_seen) = _run_both(**kw).values()
    assert obj_result.digest() == bat_result.digest()
    assert obj_seen, "no timer fired inside the run"
    assert obj_seen == bat_seen
    assert [c.stats() for c in obj_sim.clients] == [c.stats() for c in bat_sim.clients]
    assert {sid: s.stats() for sid, s in obj_sim.servers.items()} == {
        sid: s.stats() for sid, s in bat_sim.servers.items()
    }


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_batched_kernel_matches_object_kernel(name):
    assert_kernels_equivalent(**MATRIX[name])


#: Rate-limited strategies at half a permit per window: on one to three
#: clients every replica runs out of permits, so requests wait in the
#: backlog and its retry timer carries them.
BACKPRESSURED = ["C3:initial_rate=0.5", "RR:initial_rate=0.5"]

#: The property's scenarios, with knobs that land inside a run of a few
#: hundred milliseconds (a crash, a recovery and GC pauses all happen).
SCENARIOS = [
    {},
    dict(
        scenario="crash-recovery",
        scenario_params={"first_at_ms": 30.0, "down_ms": 80.0, "stagger_ms": 40.0},
    ),
    dict(scenario="slow-node"),
    dict(scenario="gc-storm", scenario_params={"mean_interarrival_ms": 50.0}),
]


@st.composite
def kernel_configs(draw) -> dict:
    strategy = draw(st.sampled_from(["LOR", "P2C", "C3", "RR", "RAND", "ORA", "DS", *BACKPRESSURED]))
    clients = (1, 3) if strategy in BACKPRESSURED else (2, 8)
    return dict(
        draw(st.sampled_from(SCENARIOS)),
        strategy=strategy,
        num_clients=draw(st.integers(*clients)),
        num_servers=draw(st.integers(min_value=3, max_value=8)),
        num_requests=draw(st.integers(min_value=50, max_value=300)),
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        utilization=draw(st.floats(min_value=0.3, max_value=0.9)),
        read_repair_probability=draw(st.floats(min_value=0.0, max_value=0.6)),
        read_fraction=draw(st.floats(min_value=0.5, max_value=1.0)),
        failure_detector=draw(st.sampled_from(["binary", "phi"])),
        hedging=draw(
            st.sampled_from([None, "hedge:quantile=0.5,max_extra=1", "hedge:quantile=0.5,max_extra=2"])
        ),
        # Of 300 draws, every run that completed ended within 11 s of
        # simulated time.  Under phi detection a run can leave requests parked for good:
        # once traffic stops every replica goes suspect, and nothing probes
        # them back.  Both kernels then fire the park retry every 5 ms up to
        # the horizon, which at the default 600 s costs ~10 s a kernel.
        max_sim_time_ms=20_000.0,
    )


@settings(max_examples=40, deadline=None)
@given(config=kernel_configs())
def test_batched_kernel_matches_object_kernel_property(config):
    assert_kernels_equivalent(**config)


def test_the_kernel_client_is_the_simulator_client():
    """The kernel's clients run the one request lifecycle.

    ``KernelClient`` overrides only I/O on arena slots and the hedged
    completion that frees them; the kernel keeps no copy of submit, retry,
    park or hedge, no timer codes or retry constants of its own, and no
    per-client timer or park state, and ``finish()`` writes back no
    counter: every one is the client's own throughout the run.
    """
    assert issubclass(KernelClient, SimClient)
    own = {name for name in vars(KernelClient) if not name.startswith("__")} - {"_abc_impl"}
    assert own == {
        "kernel", "_replica_group", "_transmit", "_count_backpressure", "_read_repair",
        "_hedge", "_send_hedge", "_hedge_complete", "_answered",
    }
    deleted = {
        "_suspicious", "_submit", "_send", "_dispatch", "_sel_timeout", "_maybe_hedge",
        "_on_hedge", "_rearm_hedge", "_park", "_on_parked", "_schedule_retry", "_on_retry",
        "_HEDGE", "_RETRY", "_PARKED", "_MIN_RETRY_MS", "_PARKED_RETRY_MS",
    }
    assert not deleted & (set(vars(kernel_module)) | set(vars(BatchedKernel)))
    sim = ReplicaSelectionSimulation(
        SimulationConfig(kernel="batched", num_servers=4, num_clients=2, num_requests=10)
    )
    kernel = BatchedKernel(sim)
    per_client = {"_parked", "_parked_armed", "_retry_armed", "_hedge_ops", "_hedge_by_copy"}
    assert not per_client & set(vars(kernel))
    assert all(client.kernel is kernel for client in sim.clients)
    own_counters = (
        "requests_handled", "responses_handled", "read_repairs_issued", "requests_parked",
        "hedges_fired", "hedges_won",
    )
    for client in sim.clients:
        for counter in own_counters:
            setattr(client, counter, 7)
    kernel.finish()
    assert all(client.kernel is None for client in sim.clients)
    assert all(c.stats()[counter] == 7 for c in sim.clients for counter in own_counters)


def test_invalid_kernel_rejected():
    with pytest.raises(ValueError, match="kernel"):
        SimulationConfig(kernel="vectorised")

