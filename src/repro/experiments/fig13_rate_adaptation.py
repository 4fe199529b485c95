"""Figure 13 — sending-rate adaptation and backpressure over time.

A seven-node cluster serves a steady workload while one tracked node's
latencies are artificially inflated three times; the figure shows how two
coordinators' sending rates towards that node adapt (multiplicative decrease
into the low-rate region, recovery through the saddle, optimistic probing)
and when backpressure fires.

The latency inflation is reproduced by scripting the tracked node's
service-time multiplier (``set_service_time_multiplier``), mirroring the
``tc``-based inflation of the paper's testbed run.  Each observer's selector
is a :class:`~repro.core.scheduler.C3Scheduler`; setting its
``record_history`` before the run keeps the rate adjustments that its
``rate_history`` returns.
"""

from __future__ import annotations

import numpy as np

from ..cluster import CassandraCluster, ClusterConfig
from .base import ExperimentResult, registry

__all__ = ["run"]


@registry.register("fig13", "Sending-rate adaptation against a degrading peer (Figure 13)")
def run(
    num_nodes: int = 7,
    num_generators: int = 100,
    duration_ms: float = 3_000.0,
    episodes: tuple[tuple[float, float], ...] = ((0.30, 0.45), (0.55, 0.60), (0.70, 0.75)),
    slowdown_factor: float = 6.0,
    observer_count: int = 2,
    initial_rate: float = 3.0,
    seed: int = 7,
) -> ExperimentResult:
    """Reproduce the rate-adaptation trace of Figure 13 (summary statistics).

    The tracked node's latencies are inflated by ``slowdown_factor`` during
    each episode (the paper used Linux ``tc`` on the testbed).  The paper's
    coordinators handle enough traffic that their per-server rate limiters
    are genuinely exercised; at this scaled-down load that regime is
    recreated by starting from a lower per-server rate and relaxing the
    light-sender guards of the controller (see C3Config.rate_min_utilisation).
    """
    config = ClusterConfig(
        num_nodes=num_nodes,
        num_generators=num_generators,
        duration_ms=duration_ms,
        strategy=f"c3:initial_rate={initial_rate},rate_min_utilisation=0.15,rate_excess_tolerance=1.3",
        compaction_enabled=False,
        gc_enabled=False,
        seed=seed,
    )
    cluster = CassandraCluster(config)
    tracked = cluster.node_ids[-1]
    tracked_node = cluster.nodes[tracked]
    observers = cluster.node_ids[:observer_count]
    for observer in observers:
        cluster.coordinators[observer].selector.record_history = True

    episode_windows = [(duration_ms * start, duration_ms * end) for start, end in episodes]
    for start_ms, end_ms in episode_windows:
        cluster.loop.schedule_at(start_ms, tracked_node.set_service_time_multiplier, slowdown_factor)
        cluster.loop.schedule_at(end_ms, tracked_node.set_service_time_multiplier, 1.0)

    result = cluster.run()

    rows = []
    data = {"tracked_node": tracked, "episodes_ms": episode_windows, "result": result}
    for observer in observers:
        selector = cluster.coordinators[observer].selector
        history = selector.rate_history(tracked)
        increases = [e for e in history if e.kind == "increase"]
        decreases = [e for e in history if e.kind == "decrease"]
        decreases_in_episode = [
            e
            for e in decreases
            if any(start <= e.time <= end + 200.0 for start, end in episode_windows)
        ]
        rates = np.array([e.new_rate for e in history]) if history else np.zeros(0)
        rows.append(
            [
                f"coordinator {observer}",
                len(increases),
                len(decreases),
                len(decreases_in_episode),
                float(rates.min()) if rates.size else selector.sending_rates().get(tracked, 0.0),
                float(rates.max()) if rates.size else selector.sending_rates().get(tracked, 0.0),
                selector.sending_rates().get(tracked, 0.0),
            ]
        )
        data[f"history_{observer}"] = history
    rows.append(
        [
            "cluster",
            "-",
            "-",
            "-",
            "-",
            "-",
            result.backpressure_events,
        ]
    )

    return ExperimentResult(
        experiment_id="fig13",
        title=f"Rate adaptation of {observer_count} coordinators towards node {tracked} (3 degradation episodes)",
        headers=[
            "observer",
            "rate increases",
            "rate decreases",
            "decreases near episodes",
            "min rate",
            "max rate",
            "final/backpressure",
        ],
        rows=rows,
        notes=[
            "Paper: both coordinators' estimates of the degraded peer's capacity agree over time; "
            "the trace shows multiplicative decreases into the low-rate region during the three "
            "inflation episodes, recovery through the saddle region afterwards, and a handful of "
            "backpressure events when the inflation ends and the generators throttle up.",
            "The last row reports cluster-wide backpressure events in the 'final/backpressure' column.",
        ],
        data=data,
    )
