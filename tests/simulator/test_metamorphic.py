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

Under a scenario the inputs also include its millisecond knobs: every
``*_ms`` field of its param class that is not ``None`` (a ``None`` one is
derived from a config field scaled above).  The list is a query over the
registry, not a hand-kept list.  One known break remains: the client's
parked and minimum retry delays (``_PARKED_RETRY_MS``, ``_MIN_RETRY_MS`` in
``core/lifecycle.py``, the one request lifecycle both kernels' clients run)
are absolute times.  A crash of a whole replica group parks requests and
reaches them.
"""

from __future__ import annotations

import pytest

from repro.core import lifecycle
from repro.scenarios import SCENARIOS, scenario_names
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


#: Event times pulled forward, as in the golden-digest suite, so a short run
#: reaches every perturbation.
SCENARIO_KNOBS = {
    "gc-storm": {"mean_interarrival_ms": 40.0, "mean_duration_ms": 15.0},
    "crash-recovery": {"first_at_ms": 20.0, "down_ms": 30.0, "stagger_ms": 25.0},
    "network-jitter": {"at_ms": 15.0},
    "load-spike": {"start_ms": 15.0, "end_ms": 60.0, "factor": 2.0},
}


def _scenario_ms_knobs(config: SimulationConfig) -> dict[str, float]:
    """The scenario's millisecond knobs a run uses as set: every ``*_ms`` field not ``None``."""
    knobs = {**SCENARIOS.get(config.scenario).param_defaults(), **config.scenario_params}
    return {name: value for name, value in knobs.items() if name.endswith("_ms") and value is not None}


def _scaled(config: SimulationConfig, k: float) -> SimulationConfig:
    """``config`` with every millisecond-valued input multiplied by ``k``."""
    name = str(config.strategy)
    defaults = get_strategy(name).param_defaults()
    params = ",".join(f"{param}={k * defaults[param]!r}" for param in MS_PARAMS.get(name, ()))
    fields = {field: k * getattr(config, field) for field in MS_FIELDS}
    if config.scenario is not None:
        scaled = {knob: k * value for knob, value in _scenario_ms_knobs(config).items()}
        fields["scenario_params"] = {**config.scenario_params, **scaled}
    return config.copy(strategy=f"{name}:{params}" if params else name, **fields)


def _differing(base: SimulationResult, doubled: SimulationResult) -> int:
    return int((doubled.latencies_ms != 2.0 * base.latencies_ms).sum())


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


def _scenario_config(scenario: str, strategy: str, kernel: str, **knobs) -> SimulationConfig:
    return SimulationConfig(
        strategy=strategy, num_servers=9, num_clients=10, num_requests=600, utilization=0.6, seed=5,
        kernel=kernel, scenario=scenario, scenario_params={**SCENARIO_KNOBS.get(scenario, {}), **knobs},
    )


@pytest.mark.parametrize("kernel", list(KERNELS))
@pytest.mark.parametrize("strategy", ["LOR", "C3", "DS"])
@pytest.mark.parametrize("scenario", scenario_names())
def test_the_relation_holds_under_every_scenario(scenario, strategy, kernel):
    _assert_doubled(_scenario_config(scenario, strategy, kernel))


def test_scaling_reaches_every_scenario_ms_knob():
    crash = _scaled(_scenario_config("crash-recovery", "LOR", "object"), 2.0)
    assert crash.scenario_params == {
        "first_at_ms": 40.0, "down_ms": 60.0, "stagger_ms": 50.0, "period_ms": 4000.0,
    }
    # A None knob is derived from a scaled config field, so it stays None.
    jitter = _scaled(_scenario_config("network-jitter", "LOR", "object"), 2.0)
    assert jitter.scenario_params == {"at_ms": 30.0}
    assert _scaled(_scenario_config("baseline", "LOR", "object"), 2.0).scenario_params == {}


#: Every replica of the first group down at once, so requests park.
_WHOLE_GROUP_DOWN = {"targets": [0, 1, 2], "down_ms": 300.0, "stagger_ms": 0.0, "first_at_ms": 20.0}


@pytest.mark.parametrize("kernel", list(KERNELS))
@pytest.mark.parametrize("strategy", ["LOR", "C3", "DS"])
def test_the_retry_delays_are_the_known_break(strategy, kernel, monkeypatch):
    config = _scenario_config("crash-recovery", strategy, kernel, **_WHOLE_GROUP_DOWN)
    base = run_simulation(config)
    assert _differing(base, run_simulation(_scaled(config, 2.0))) > 0
    # Scaling the two absolute delays too restores it, on both kernels: the
    # lifecycle holds the only copies.
    monkeypatch.setattr(lifecycle, "_PARKED_RETRY_MS", 2.0 * lifecycle._PARKED_RETRY_MS)
    monkeypatch.setattr(lifecycle, "_MIN_RETRY_MS", 2.0 * lifecycle._MIN_RETRY_MS)
    assert _differing(base, run_simulation(_scaled(config, 2.0))) == 0
