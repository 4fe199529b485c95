"""A metamorphic relation: doubling every millisecond doubles every latency, bit for bit.

C3 has no closed form, but the simulator has a symmetry.  Multiply every
millisecond-valued input by 2 and every latency must come out multiplied by
exactly 2, because doubling is exact in binary floating point.  The inputs are
the config's service time, network delay, fluctuation interval and time cap,
plus each strategy's time constants:

* DS: ``update_interval_ms`` and ``reset_interval_ms``;
* C3: ``rate_delta_ms``, ``saddle_duration_ms`` and ``service_time_floor_ms``.

The floor binds in default runs: the service-time EWMA (α = 0.9) sits close
to the last exponential draw, and about 1 in 4 000 draws at a 4 ms mean falls
below 1 µs.  Leaving it unscaled breaks most of C3's latencies here, as does
leaving DS's update interval unscaled.  A time constant hard-coded where a
run reaches it, such as the rate limiter's window written as 20.0, breaks the
relation the same way once rate control engages.
"""

from __future__ import annotations

import pytest

from repro.simulator import KERNELS, SimulationConfig, run_simulation
from repro.simulator.metrics import SimulationResult
from repro.strategies import get_strategy

#: Each strategy's millisecond-valued params; the other strategies have none.
MS_PARAMS = {
    "DS": ("update_interval_ms", "reset_interval_ms"),
    "C3": ("rate_delta_ms", "saddle_duration_ms", "service_time_floor_ms"),
}
MS_FIELDS = ("mean_service_time_ms", "network_delay_ms", "fluctuation_interval_ms", "max_sim_time_ms")
STRATEGIES = ["RAND", "LOR", "RR", "P2C", "ORA", "DS", "C3"]


def _scaled(config: SimulationConfig, k: float) -> SimulationConfig:
    """``config`` with every millisecond-valued input multiplied by ``k``."""
    name = str(config.strategy)
    defaults = get_strategy(name).param_defaults()
    params = ",".join(f"{param}={k * defaults[param]!r}" for param in MS_PARAMS.get(name, ()))
    fields = {field: k * getattr(config, field) for field in MS_FIELDS}
    return config.copy(strategy=f"{name}:{params}" if params else name, **fields)


def _assert_doubled(config: SimulationConfig) -> SimulationResult:
    base = run_simulation(config)
    doubled = run_simulation(_scaled(config, 2.0))
    for field in ("latencies_ms", "read_latencies_ms", "write_latencies_ms"):
        got, want = getattr(doubled, field), 2.0 * getattr(base, field)
        assert got.shape == want.shape, field
        assert (got == want).all(), f"{field}: {(got != want).sum()} of {want.size} differ"
    assert doubled.backpressure_events == base.backpressure_events
    return base


@pytest.mark.parametrize("kernel", list(KERNELS))
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_doubling_every_millisecond_doubles_every_latency(strategy, kernel):
    _assert_doubled(
        SimulationConfig(
            strategy=strategy, num_servers=20, num_clients=30, num_requests=3_000, seed=3, kernel=kernel
        )
    )


@pytest.mark.parametrize("kernel", list(KERNELS))
def test_the_relation_holds_where_c3_rate_control_engages(kernel):
    # Three clients each send a third of the load, so their rate limiters bind.
    config = SimulationConfig(strategy="C3", num_servers=20, num_clients=3, num_requests=3_000, seed=0)
    base = _assert_doubled(config.copy(kernel=kernel))
    assert base.backpressure_events > 0


def test_scaling_reaches_every_listed_knob():
    scaled = _scaled(SimulationConfig(strategy="C3"), 2.0)
    assert scaled.strategy == "C3:rate_delta_ms=40.0,saddle_duration_ms=200.0,service_time_floor_ms=0.002"
    assert [getattr(scaled, field) for field in MS_FIELDS] == [8.0, 0.5, 200.0, 1_200_000.0]
    assert _scaled(SimulationConfig(strategy="LOR"), 2.0).strategy == "LOR"
