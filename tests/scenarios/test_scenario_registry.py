"""Unit tests for the scenario registry and the declarative layer."""

import dataclasses
import re

import numpy as np
import pytest
from registry_contract import RegistryContract

from repro.cli import main
from repro.live import cli as live_cli
from repro.live.harness import LiveTrialConfig
from repro.runner import SweepSpec
from repro.scenarios import (
    SCENARIOS,
    Scenario,
    ScenarioContext,
    build_scenario,
    scenario_names,
    scenario_rate_factor,
)
from repro.scenarios.registry import ScenarioParams, resolve_scenario
from repro.simulator import SimulationConfig
from repro.simulator.engine import EventLoop
from repro.simulator.server import SimServer


def make_context(num_servers=5):
    loop = EventLoop()
    servers = [
        SimServer(loop, server_id=i, deterministic=True, rng=np.random.default_rng(i))
        for i in range(num_servers)
    ]
    return ScenarioContext(loop, servers, np.random.default_rng(0))


class TestRegistry:
    def test_builtin_names(self):
        names = scenario_names()
        assert {
            "baseline", "bimodal", "gc-storm", "crash-recovery",
            "slow-node", "network-jitter", "load-spike", "heterogeneous",
        } <= set(names)
        assert list(names) == sorted(names)

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match="valid names: .*gc-storm"):
            SCENARIOS.resolve("gc-typo")

    def test_unknown_knob_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter 'nope' for scenario gc-storm"):
            resolve_scenario("gc-storm", {"nope": 1})

    def test_knob_override_reaches_the_component(self):
        config = SimulationConfig(
            num_servers=5, num_clients=4, num_requests=0,
            scenario="gc-storm", scenario_params={"slowdown_factor": 9.0},
        )
        scenario = build_scenario(config)
        assert scenario.components[0].slowdown_factor == 9.0

    def test_duplicate_registration_rejected(self):
        entry = SCENARIOS.get("baseline")
        with pytest.raises(ValueError, match="already registered"):
            SCENARIOS.add(entry)

    def test_custom_registration_roundtrip(self, monkeypatch):
        # Register on a copy of the registry's tables, restored afterwards.
        monkeypatch.setattr(SCENARIOS, "_entries", dict(SCENARIOS._entries))
        monkeypatch.setattr(SCENARIOS, "_lookup", dict(SCENARIOS._lookup))

        @dataclasses.dataclass(frozen=True)
        class CustomParams(ScenarioParams):
            x: int = 1

        SCENARIOS.register("test-custom", kind="scenario", params=CustomParams, description="test")(CustomParams)
        assert SCENARIOS.resolve("test-custom").params_cls is CustomParams
        config = SimulationConfig(
            num_servers=5, num_clients=4, num_requests=0, scenario="test-custom", scenario_params={"x": 2}
        )
        assert build_scenario(config).name == "test-custom"
        assert resolve_scenario("test-custom", {"x": 2.0})[1] == CustomParams(x=2)


class TestRateFactors:
    def test_bimodal_tracks_config_fields(self):
        config = SimulationConfig(
            num_servers=5, num_clients=4, num_requests=0,
            fluctuation_multiplier=3.0, scenario="bimodal",
        )
        assert scenario_rate_factor(config) == pytest.approx(2.0)
        # ...and matches the legacy fluctuation sizing, so swapping
        # scenario="bimodal" for the legacy fields keeps the arrival rate.
        legacy = config.copy(scenario=None, fluctuation_enabled=True)
        assert config.effective_rate_multiplier == pytest.approx(legacy.effective_rate_multiplier)

    def test_bimodal_knob_override(self):
        config = SimulationConfig(
            num_servers=5, num_clients=4, num_requests=0,
            scenario="bimodal", scenario_params={"rate_multiplier": 5.0, "fast_probability": 0.2},
        )
        assert scenario_rate_factor(config) == pytest.approx(0.8 + 0.2 * 5.0)

    def test_non_fluctuating_scenarios_do_not_inflate_capacity(self):
        for name in ("baseline", "gc-storm", "crash-recovery", "slow-node"):
            config = SimulationConfig(
                num_servers=5, num_clients=4, num_requests=0, scenario=name
            )
            assert config.effective_rate_multiplier == 1.0


class TestConfigValidation:
    def test_scenario_params_without_scenario_rejected(self):
        with pytest.raises(ValueError, match="without a scenario"):
            SimulationConfig(
                num_servers=5, num_clients=4, num_requests=0, scenario_params={"x": 1}
            )

    def test_unknown_scenario_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            SimulationConfig(num_servers=5, num_clients=4, num_requests=0, scenario="nope")


class TestTargetResolution:
    def test_all_and_none(self):
        ctx = make_context()
        assert len(ctx.resolve_targets("all")) == 5
        assert len(ctx.resolve_targets(None)) == 5

    def test_index_fraction_and_list(self):
        ctx = make_context()
        assert [s.server_id for s in ctx.resolve_targets(2)] == [2]
        assert [s.server_id for s in ctx.resolve_targets(-1)] == [4]
        assert [s.server_id for s in ctx.resolve_targets(0.4)] == [0, 1]
        assert [s.server_id for s in ctx.resolve_targets([1, 3])] == [1, 3]

    def test_invalid_specs_rejected(self):
        ctx = make_context()
        with pytest.raises(ValueError):
            ctx.resolve_targets(1.5)
        with pytest.raises(ValueError):
            ctx.resolve_targets(True)


class TestScenarioLifecycle:
    def test_components_start_in_order_and_stop_in_reverse(self):
        calls = []

        class Probe:
            def __init__(self, tag):
                self.tag = tag

            def start(self, ctx):
                calls.append(("start", self.tag))

            def stop(self):
                calls.append(("stop", self.tag))

        scenario = Scenario(name="probe", components=(Probe("a"), Probe("b")))
        scenario.start(make_context())
        scenario.stop()
        assert calls == [("start", "a"), ("start", "b"), ("stop", "b"), ("stop", "a")]

    def test_stop_only_touches_started_components(self):
        calls = []

        class Probe:
            def start(self, ctx):
                calls.append("start")

            def stop(self):
                calls.append("stop")

        class Boom:
            def start(self, ctx):
                raise RuntimeError("nope")

            def stop(self):  # pragma: no cover - must not run
                calls.append("boom-stop")

        scenario = Scenario(name="probe", components=(Probe(), Boom()))
        with pytest.raises(RuntimeError):
            scenario.start(make_context())
        scenario.stop()
        assert calls == ["start", "stop"]


class TestScenarioRegistryContract(RegistryContract):
    registry = SCENARIOS
    ALIASES = [("GC-Storm", "gc-storm")]
    TYPO = ("gc-strom", "gc-storm")


#: Every scenario's knobs and defaults as the registry declared them before
#: the knobs were typed; the literal types matter (``c3-repro scenarios``
#: prints their reprs, and live payloads carry them).
KNOB_DEFAULTS = {
    "baseline": {},
    "bimodal": {"interval_ms": None, "rate_multiplier": None, "fast_probability": 0.5},
    "crash-recovery": {
        "first_at_ms": 250.0, "down_ms": 400.0, "stagger_ms": 600.0,
        "repeats": 1, "period_ms": 2000.0, "targets": None,
    },
    "gc-storm": {"mean_interarrival_ms": 400.0, "mean_duration_ms": 60.0, "slowdown_factor": 6.0},
    "heterogeneous": {"spread": 2.5},
    "load-spike": {"start_ms": 400.0, "end_ms": 900.0, "factor": 1.6},
    "network-jitter": {"at_ms": 250.0, "delay_ms": None, "jitter_ms": None},
    "slow-node": {"factor": 4.0, "start_ms": 0.0, "end_ms": None, "target": 0},
}


class TestTypedKnobs:
    @pytest.mark.parametrize("name", sorted(KNOB_DEFAULTS))
    def test_defaults_keep_their_values_order_and_literal_types(self, name):
        defaults = SCENARIOS.get(name).param_defaults()
        assert list(defaults.items()) == list(KNOB_DEFAULTS[name].items())
        assert [type(v) for v in defaults.values()] == [type(v) for v in KNOB_DEFAULTS[name].values()]

    def test_every_builtin_is_registered_in_name_order(self):
        assert scenario_names() == tuple(sorted(KNOB_DEFAULTS))

    def test_values_are_coerced_to_the_field_types(self):
        _, params = resolve_scenario("crash-recovery", {"targets": [0, 2], "repeats": 2.0, "down_ms": 300})
        assert params.targets == (0, 2) and params.repeats == 2 and params.down_ms == 300.0
        assert type(params.repeats) is int and type(params.down_ms) is float

    def test_scenario_params_are_stored_as_given(self):
        # Validation coerces a copy: the config's params, hashed into cache
        # keys, keep the caller's literal values.
        given = {"factor": 4, "target": 1}
        config = SimulationConfig(num_servers=5, scenario="slow-node", scenario_params=given)
        assert config.scenario_params == given and type(config.scenario_params["factor"]) is int

    def test_a_name_in_any_case_is_stored_canonically(self):
        assert SimulationConfig(num_servers=5, scenario="GC-Storm").scenario == "gc-storm"

    @pytest.mark.parametrize(
        "targets,message",
        [([True], "expects tuple"), ([0.5], "expects tuple"), ("all", "expects tuple"), ([0, 7], "out of range")],
    )
    def test_crash_targets_must_be_server_indexes(self, targets, message):
        with pytest.raises(ValueError, match=message):
            SimulationConfig(num_servers=5, scenario="crash-recovery", scenario_params={"targets": targets})


#: ``(scenario, knobs, message)`` rejected when the config is constructed.
BAD_KNOBS = [
    ("slow-node", {"factor": "abc"}, "'factor' of scenario slow-node expects float, got 'abc'"),
    ("slow-node", {"factor": True}, "'factor' of scenario slow-node expects float, got a boolean"),
    ("slow-node", {"factor": -1}, "slowdown factor must be positive"),
    ("slow-node", {"target": 7}, "scenario target index 7 is out of range for 3 servers"),
    ("slow-node", {"factor": -1, "target": 7}, "slowdown factor must be positive"),
    ("heterogeneous", {"spread": float("nan")}, "'spread' of scenario heterogeneous must be finite"),
    ("heterogeneous", {"spread": 0.5}, "spread must be >= 1"),
    ("crash-recovery", {"targets": "all"}, "'targets' of scenario crash-recovery expects tuple"),
    ("crash-recovery", {"repeats": 0}, "repeats must be >= 1"),
    ("crash-recovery", {"down_ms": 0.0}, "crash window end must follow start"),
    ("crash-recovery", {"stagger_ms": -300.0, "targets": [0, 1]}, "crash start must be non-negative"),
    ("network-jitter", {"jitter_ms": -1}, "network jitter_ms must be non-negative"),
    ("network-jitter", {"delay_ms": -1}, "network delay_ms must be non-negative"),
    ("network-jitter", {"jitter_ms": 2.0}, "jitter must not exceed the base latency"),
    ("gc-storm", {"mean_duration_ms": 0}, "mean durations must be positive"),
    ("gc-storm", {"slowdown_factor": 0}, "slowdown_factor must be positive"),
    ("load-spike", {"end_ms": 100.0}, "end_ms must follow start_ms"),
    ("bimodal", {"fast_probability": 1.5}, "fast_probability must be in"),
    ("gc-storm", {"slowdown": 2.0}, "did you mean 'slowdown_factor'"),
]


class TestRejectedAtConstruction:
    @pytest.mark.parametrize("name,knobs,message", BAD_KNOBS)
    def test_simulation_config_rejects_the_knob(self, name, knobs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SimulationConfig(num_servers=3, scenario=name, scenario_params=knobs)

    def test_no_sweep_key_is_handed_out(self):
        with pytest.raises(ValueError, match="slowdown factor must be positive"):
            SweepSpec(
                base=SimulationConfig(
                    num_servers=3, scenario="slow-node", scenario_params={"factor": -1, "target": 7}
                ),
                seeds=(0, 1),
            )
        spec = SweepSpec(
            base=SimulationConfig(num_servers=9, scenario="slow-node", scenario_params={"target": 7}),
            grid={"num_servers": (9, 3)},
        )
        with pytest.raises(ValueError, match="out of range for 3 servers"):
            spec.trials()

    def test_live_config_raises_value_errors(self):
        with pytest.raises(ValueError, match="expects float, got 'abc'"):
            LiveTrialConfig(scenario="slow-node", scenario_params={"factor": "abc"})
        with pytest.raises(ValueError, match="got a boolean"):
            LiveTrialConfig(scenario="slow-node", scenario_params={"factor": True})
        with pytest.raises(ValueError, match="out of range for 3 servers"):
            LiveTrialConfig(scenario="crash-recovery", scenario_params={"targets": [3]})


class TestCommandLine:
    @pytest.mark.parametrize(
        "knob,message",
        [
            ('factor="abc"', "parameter 'factor' of scenario slow-node expects float, got 'abc'"),
            ("factor=-1", "slowdown factor must be positive"),
            ("target=7", "scenario target index 7 is out of range for 3 servers"),
        ],
    )
    def test_bad_knob_exits_2_with_one_line(self, knob, message, capsys):
        args = ["simulate", "--scenario", "slow-node", "--scenario-param", knob, "--servers", "3"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err == message + "\n" and captured.out == ""

    def test_live_bad_knob_exits_2_before_any_server_spawns(self, capsys, monkeypatch):
        monkeypatch.setattr(live_cli, "run_trial", lambda *a, **k: pytest.fail("a trial was started"))
        assert main(["live", "--scenario", "slow-node", "--scenario-param", 'factor="abc"']) == 2
        assert capsys.readouterr().err == "parameter 'factor' of scenario slow-node expects float, got 'abc'\n"

    def test_unknown_scenario_suggests_the_closest(self, capsys):
        assert main(["simulate", "--scenario", "gc-strom"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "did you mean 'gc-storm'?" in err
