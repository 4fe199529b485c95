"""Ablation studies of C3's design choices (DESIGN.md §5).

The paper motivates three design choices that these ablations probe directly
on the flat simulator:

* the **cubic exponent** ``b`` of the scoring function (b = 3 in C3, b = 1 is
  the linear scoring Figure 4 argues against);
* the **concurrency-compensation weight** ``w`` (set to the number of clients
  in the paper; 0 disables the compensation entirely);
* **rate control** (C3 with the ranking only, no rate limiter/backpressure).

Each ablation is a *strategy parameter sweep*: the variants are expressed as
:class:`~repro.strategies.StrategySpec` strings (``"C3:b=2"``,
``"C3:rate_control_enabled=false"``) gridded through
:func:`~repro.experiments.common.sweep_flat`, so they inherit process
pooling, per-trial caching and seed aggregation from the sweep runner like
every other grid dimension — no bespoke loops.
"""

from __future__ import annotations

from typing import Sequence

from ..runner import SweepRunner
from ..simulator import SimulationConfig
from ..strategies import StrategySpec
from .base import ExperimentResult, registry
from .common import sweep_flat

__all__ = ["run_exponent_ablation", "run_concurrency_ablation", "run_rate_control_ablation"]

_DEFAULT_SIM = dict(
    num_servers=30,
    num_clients=90,
    num_requests=5_000,
    utilization=0.7,
    fluctuation_interval_ms=200.0,
)

#: Aggregate metrics reported per variant, in column order.
_METRIC_COLUMNS = (("median", "median"), ("p95", "p95"), ("p99", "p99"), ("p999", "p99.9"))


def _c3_param_sweep(
    variants: Sequence[tuple[str, str]],
    seeds: Sequence[int],
    runner: SweepRunner | None,
    sim_params: dict,
) -> tuple[list[list], dict]:
    """Sweep labelled C3 param specs and reduce each to its metric row.

    ``variants`` is ``[(label, spec string), ...]``; the sweep grids the
    specs on the ``strategy`` axis (replicated across ``seeds``) and each
    label's row/data reports the seed-averaged latency metrics (data also
    ``backpressure_events``).
    """
    base = SimulationConfig(**sim_params)
    grid = {"strategy": tuple(spec for _, spec in variants)}
    result = sweep_flat(base, grid, seeds, runner=runner)
    by_strategy = {point.params["strategy"]: point for point in result.aggregates()}

    rows: list[list] = []
    data: dict = {}
    for label, spec in variants:
        point = by_strategy[StrategySpec.parse(spec).canonical()]
        metrics = {name: point.metrics[key].mean for key, name in _METRIC_COLUMNS}
        metrics["throughput_rps"] = point.metrics["throughput_rps"].mean
        events = [t.backpressure_events for t in result.trials if t.params == point.params]
        metrics["backpressure_events"] = sum(events) / len(events)
        rows.append([label] + [metrics[name] for _, name in _METRIC_COLUMNS])
        data[label] = metrics
    return rows, data


@registry.register("ablation_exponent", "Scoring-function exponent ablation (b = 1, 2, 3, 4)")
def run_exponent_ablation(
    exponents: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0),
    num_clients: int = 90,
    seeds: tuple[int, ...] = (0,),
    runner: SweepRunner | None = None,
    **sim_overrides,
) -> ExperimentResult:
    """Sweep the queue-penalty exponent ``b`` of the scoring function."""
    variants = [(exponent, f"C3:b={exponent}") for exponent in exponents]
    rows, data = _c3_param_sweep(
        variants,
        seeds,
        runner,
        {**_DEFAULT_SIM, **sim_overrides, "num_clients": num_clients},
    )
    return ExperimentResult(
        experiment_id="ablation_exponent",
        title="C3 latency (ms) as a function of the scoring exponent b",
        headers=["exponent b", "median", "p95", "p99", "p99.9"],
        rows=rows,
        notes=[
            "The paper argues b = 3 balances preferring fast servers against robustness to "
            "service-time changes; b = 1 reproduces the linear scoring that builds long queues at "
            "momentarily-fast servers.",
        ],
        data=data,
    )


@registry.register("ablation_concurrency", "Concurrency-compensation weight ablation (w = 0, 1, n)")
def run_concurrency_ablation(
    num_clients: int = 90,
    seeds: tuple[int, ...] = (0,),
    runner: SweepRunner | None = None,
    **sim_overrides,
) -> ExperimentResult:
    """Sweep the concurrency-compensation weight ``w`` in the queue estimate."""
    variants = [
        ("w = 0 (off)", "C3:w=0"),
        ("w = 1", "C3:w=1"),
        # w = n is the spec default (concurrency_weight=None -> number of
        # clients), so the bare name is the paper's configuration.
        (f"w = n ({num_clients})", "C3"),
    ]
    rows, data = _c3_param_sweep(
        variants,
        seeds,
        runner,
        {**_DEFAULT_SIM, **sim_overrides, "num_clients": num_clients},
    )
    return ExperimentResult(
        experiment_id="ablation_concurrency",
        title="C3 latency (ms) as a function of the concurrency-compensation weight",
        headers=["weight", "median", "p95", "p99", "p99.9"],
        rows=rows,
        notes=[
            "The paper sets w to the number of clients so that clients with more outstanding "
            "requests project larger queues and back off, providing robustness to synchronisation.",
        ],
        data=data,
    )


@registry.register("ablation_rate_control", "Rate control on/off ablation")
def run_rate_control_ablation(
    num_clients: int = 90,
    seeds: tuple[int, ...] = (0,),
    utilization: float = 0.85,
    runner: SweepRunner | None = None,
    **sim_overrides,
) -> ExperimentResult:
    """Compare full C3 against ranking-only C3 (no rate control/backpressure).

    The difference is most visible near saturation, so the default
    utilisation is higher than in the other ablations.  Rows end with the
    mean backpressure events; a note says when rate control never engaged.
    """
    variants = [
        ("C3 (ranking + rate control)", "C3"),
        ("C3 ranking only", "C3:rate_control_enabled=false"),
    ]
    rows, data = _c3_param_sweep(
        variants,
        seeds,
        runner,
        {
            **_DEFAULT_SIM,
            **sim_overrides,
            "num_clients": num_clients,
            "utilization": utilization,
        },
    )
    notes = [
        "Rate control bounds the combined demand on a single server; the RR baseline of "
        "Figure 14 isolates the complementary question (rate control without ranking).",
    ]
    full, ranking_only = rows
    if data[full[0]]["backpressure_events"] == 0 and full[1:] == ranking_only[1:]:
        notes.insert(0, "Rate control did not engage at this configuration: no backpressure, identical rows.")
    for row in rows:
        row.append(data[row[0]]["backpressure_events"])
    return ExperimentResult(
        experiment_id="ablation_rate_control",
        title=f"C3 latency (ms) with and without rate control (utilization {utilization:.0%})",
        headers=["variant", "median", "p95", "p99", "p99.9", "backpressure events"],
        rows=rows,
        notes=notes,
        data=data,
    )
