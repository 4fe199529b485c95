"""Unit tests for live trial configuration, scheduling, and payloads."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.live.harness import (
    LiveTrialConfig,
    build_payload,
    payload_digest,
    scenario_schedule,
    trial_timeline,
)
from repro.scenarios import ScenarioContext, build_scenario
from repro.simulator import SimulationConfig
from repro.simulator.engine import EventLoop

_RESULTS = {
    "completed": 100,
    "latency_ms": {"p99": 12.5},
    "histogram_digest": "abc123",
}


class TestLiveTrialConfig:
    def test_strategy_is_canonicalized(self):
        assert LiveTrialConfig(strategy="c3").strategy == "C3"
        assert LiveTrialConfig(strategy="lor").strategy == "LOR"

    def test_control_specs_are_canonicalized(self):
        config = LiveTrialConfig(failure_detector="phi", hedging="hedge")
        assert config.failure_detector == "phi"
        assert config.hedging == "hedge"

    def test_scenario_underscores_normalize_and_defaults_fill(self):
        config = LiveTrialConfig(scenario="slow_node")
        assert config.scenario == "slow-node"
        assert config.scenario_params["factor"] == 4.0
        assert config.scenario_params["target"] == 0

    def test_scenario_knobs_validate_through_shared_registry(self):
        with pytest.raises(ValueError, match="bogus"):
            LiveTrialConfig(scenario="slow-node", scenario_params={"bogus": 1})

    def test_simulator_only_scenario_is_rejected(self):
        with pytest.raises(ValueError, match="not supported by the live backend"):
            LiveTrialConfig(scenario="skewed-demand")

    def test_measurement_window_must_be_positive(self):
        with pytest.raises(ValueError, match="measurement window"):
            LiveTrialConfig(duration_s=1.0, warmup_s=0.6, cooldown_s=0.5)

    def test_replication_factor_bounded_by_servers(self):
        with pytest.raises(ValueError, match="replication_factor"):
            LiveTrialConfig(num_servers=2, replication_factor=3)

    def test_target_outside_the_cluster_is_rejected(self):
        with pytest.raises(ValueError, match="scenario target index 5 is out of range for 3 servers"):
            LiveTrialConfig(scenario="slow-node", scenario_params={"target": 5})

    def test_crash_recovery_without_repeats_is_rejected(self):
        with pytest.raises(ValueError, match="repeats must be >= 1"):
            LiveTrialConfig(scenario="crash-recovery", scenario_params={"repeats": 0})

    def test_config_payload_is_json_round_trippable(self):
        import json

        payload = LiveTrialConfig(scenario="gc-storm").config_payload()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["schema"] == "live-trial-v2"

    def test_config_payload_keys_are_the_fields_plus_schema(self):
        payload = LiveTrialConfig(scenario="slow-node").config_payload()
        assert set(payload) == {item.name for item in dataclasses.fields(LiveTrialConfig)} | {"schema"}
        assert type(payload["scenario_params"]) is dict

    def test_payload_digests_are_pinned(self):
        """A fixed config and results hash as they always have (live-trial-v2)."""
        hedged = LiveTrialConfig(
            scenario="gc-storm", strategy="lor", failure_detector="phi", hedging="hedge:quantile=0.9", seed=3
        )
        digests = [
            build_payload(config.config_payload(), _RESULTS, provenance={})["digest"]
            for config in (LiveTrialConfig(), hedged)
        ]
        assert digests == [
            "e4d5af8d1c34ca2b64806cf0896fe3b799e4cc78f9ff62a680edc3885dec552f",
            "97660d3bf8d7bf27c7d3874c7667900d93831c9820c0e37746955612661f98da",
        ]


class TestScenarioSchedule:
    def test_baseline_has_no_ops(self):
        assert scenario_schedule(LiveTrialConfig(scenario="baseline")) == []

    def test_gc_storm_has_no_scripted_ops(self):
        assert scenario_schedule(LiveTrialConfig(scenario="gc-storm")) == []

    def test_slow_node_without_end_slows_once(self):
        config = LiveTrialConfig(scenario="slow-node", scenario_params={"factor": 3.0, "start_ms": 100.0})
        assert scenario_schedule(config) == [(100.0, 0, {"op": "slow", "factor": 3.0})]

    def test_slow_node_with_end_restores_factor_one(self):
        config = LiveTrialConfig(
            scenario="slow-node",
            scenario_params={"factor": 3.0, "start_ms": 100.0, "end_ms": 900.0, "target": 1},
        )
        assert scenario_schedule(config) == [
            (100.0, 1, {"op": "slow", "factor": 3.0}),
            (900.0, 1, {"op": "slow", "factor": 1.0}),
        ]

    def test_crash_recovery_pairs_crash_and_restore(self):
        config = LiveTrialConfig(
            scenario="crash-recovery",
            scenario_params={"first_at_ms": 200.0, "down_ms": 300.0},
        )
        # The simulator's default targets on 3 servers: 0 and 3 // 2, staggered by 600 ms.
        assert scenario_schedule(config) == [
            (200.0, 0, {"op": "crash"}),
            (500.0, 0, {"op": "restore"}),
            (800.0, 1, {"op": "crash"}),
            (1100.0, 1, {"op": "restore"}),
        ]

    def test_crash_recovery_staggers_targets_and_repeats(self):
        config = LiveTrialConfig(
            scenario="crash-recovery",
            scenario_params={
                "first_at_ms": 100.0,
                "down_ms": 50.0,
                "stagger_ms": 400.0,
                "repeats": 2,
                "period_ms": 1000.0,
                "targets": [0, 1],
            },
            duration_s=5.0,
        )
        ops = scenario_schedule(config)
        crashes = [(at, sid) for at, sid, op in ops if op["op"] == "crash"]
        assert crashes == [(100.0, 0), (500.0, 1), (1100.0, 0), (1500.0, 1)]
        # Every crash has a matching restore down_ms later.
        restores = {(at, sid) for at, sid, op in ops if op["op"] == "restore"}
        assert restores == {(at + 50.0, sid) for at, sid in crashes}

    def test_crash_recovery_without_down_ms_crashes_for_good(self):
        config = LiveTrialConfig(scenario="crash-recovery", scenario_params={"down_ms": None})
        assert scenario_schedule(config) == [(250.0, 0, {"op": "crash"}), (850.0, 1, {"op": "crash"})]


class TestTrialTimeline:
    GC_STORM = dict(scenario="gc-storm", num_servers=3, duration_s=3.0)
    #: ``(at_ms, server, duration_ms)`` of seed 42's pauses, to the microsecond.
    SEED_42 = [
        (26.506, 2, 56.154),
        (112.316, 1, 242.381),
        (403.864, 2, 28.715),
        (1005.540, 0, 262.305),
        (1304.263, 0, 231.238),
        (1547.929, 0, 50.478),
        (1649.677, 0, 2.537),
        (2178.967, 1, 23.261),
        (2979.456, 2, 7.052),
    ]

    def test_gc_storm_pauses_are_pinned(self):
        timeline = trial_timeline(LiveTrialConfig(seed=42, **self.GC_STORM))
        assert [op["op"] for _, _, op in timeline] == ["pause"] * len(self.SEED_42)
        pauses = [(at_ms, sid, op["duration_ms"]) for at_ms, sid, op in timeline]
        assert [sid for _, sid, _ in pauses] == [sid for _, sid, _ in self.SEED_42]
        flat = [value for at_ms, _, duration_ms in pauses for value in (at_ms, duration_ms)]
        pinned = [value for at_ms, _, duration_ms in self.SEED_42 for value in (at_ms, duration_ms)]
        assert flat == pytest.approx(pinned, abs=5e-4)

    def test_gc_storm_draws_gap_then_server_then_duration_over_the_load(self):
        timeline = trial_timeline(LiveTrialConfig(seed=42, **self.GC_STORM))
        rng = np.random.default_rng(42 + 99_991)
        expected = []
        at_ms = float(rng.exponential(400.0))
        while at_ms < 3_000.0:
            sid = int(rng.integers(3))
            expected.append((at_ms, sid, {"op": "pause", "duration_ms": float(rng.exponential(60.0))}))
            at_ms += float(rng.exponential(400.0))
        assert timeline == expected
        assert all(at_ms < 3_000.0 for at_ms, _, _ in timeline)
        assert timeline != trial_timeline(LiveTrialConfig(seed=43, **self.GC_STORM))

    @pytest.mark.parametrize("scenario", ["baseline", "slow-node", "crash-recovery"])
    def test_a_scripted_timeline_is_the_scenario_schedule(self, scenario):
        config = LiveTrialConfig(scenario=scenario)
        assert trial_timeline(config) == scenario_schedule(config)


class RecordingServer:
    """A server that records each control edge applied to it, at loop time."""

    def __init__(self, loop, server_id, timeline):
        self.loop = loop
        self.server_id = server_id
        self.timeline = timeline

    def set_service_time_multiplier(self, multiplier, source=None):
        self.timeline.append((self.loop.now, self.server_id, {"op": "slow", "factor": multiplier}))

    def crash(self):
        self.timeline.append((self.loop.now, self.server_id, {"op": "crash"}))

    def restore(self):
        self.timeline.append((self.loop.now, self.server_id, {"op": "restore"}))


def simulated_timeline(num_servers, scenario, knobs):
    """The edges the simulator fires for ``scenario`` on ``num_servers`` servers, in firing order."""
    config = SimulationConfig(
        num_servers=num_servers,
        replication_factor=1,
        num_requests=0,
        scenario=scenario,
        scenario_params=knobs,
    )
    loop = EventLoop()
    timeline = []
    servers = [RecordingServer(loop, sid, timeline) for sid in range(num_servers)]
    build_scenario(config).start(ScenarioContext(loop, servers, np.random.default_rng(0)))
    loop.run_until_idle()
    return timeline


_TIMES = st.floats(min_value=0.0, max_value=5_000.0)
_SLOW_NODE = st.fixed_dictionaries(
    {},
    optional={
        "factor": st.floats(min_value=0.25, max_value=16.0),
        "start_ms": _TIMES,
        "end_ms": st.none() | _TIMES,
        "target": st.integers(min_value=-8, max_value=8),
    },
)
_CRASH_RECOVERY = st.fixed_dictionaries(
    {},
    optional={
        "first_at_ms": _TIMES,
        "down_ms": st.none() | st.floats(min_value=-100.0, max_value=2_000.0),
        "stagger_ms": st.floats(min_value=0.0, max_value=2_000.0),
        "repeats": st.integers(min_value=1, max_value=3),
        "period_ms": _TIMES,
        "targets": st.none() | st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=4),
    },
)
_SCENARIOS = st.one_of(
    st.tuples(st.just("slow-node"), _SLOW_NODE),
    st.tuples(st.just("crash-recovery"), _CRASH_RECOVERY),
)


class TestScheduleParity:
    """The live timeline of a scripted scenario is the simulator's, edge for edge."""

    @settings(max_examples=150, deadline=None)
    @given(num_servers=st.integers(min_value=1, max_value=7), scenario=_SCENARIOS)
    @example(num_servers=3, scenario=("crash-recovery", {}))
    @example(num_servers=3, scenario=("crash-recovery", {"down_ms": None}))
    @example(num_servers=3, scenario=("slow-node", {"target": 5}))
    def test_live_schedule_is_the_simulated_timeline(self, num_servers, scenario):
        name, knobs = scenario
        live = dict(scenario=name, scenario_params=knobs, num_servers=num_servers, replication_factor=1)
        try:
            simulated = simulated_timeline(num_servers, name, knobs)
        except ValueError as error:
            with pytest.raises(ValueError, match=re.escape(str(error))):
                LiveTrialConfig(**live)
        else:
            assert scenario_schedule(LiveTrialConfig(**live)) == simulated


class TestPayloadDigest:
    """The provenance-outside-the-digest-domain contract."""

    def test_digest_ignores_provenance(self):
        config_payload = LiveTrialConfig().config_payload()
        early = build_payload(
            config_payload,
            _RESULTS,
            provenance={"recorded_at_unix": 1.0, "host": "alpha", "python": "3.11.0"},
        )
        late = build_payload(
            config_payload,
            _RESULTS,
            provenance={"recorded_at_unix": 9.9e9, "host": "omega", "python": "3.99.0"},
        )
        assert early["provenance"] != late["provenance"]
        assert early["digest"] == late["digest"]
        assert payload_digest(early) == payload_digest(late)

    def test_digest_covers_config_and_results(self):
        config_payload = LiveTrialConfig().config_payload()
        base = build_payload(config_payload, _RESULTS, provenance={})
        other_results = build_payload(config_payload, {**_RESULTS, "completed": 101}, provenance={})
        other_config = build_payload(LiveTrialConfig(seed=43).config_payload(), _RESULTS, provenance={})
        assert base["digest"] != other_results["digest"]
        assert base["digest"] != other_config["digest"]

    def test_default_provenance_is_stamped_but_unhashed(self):
        payload = build_payload(LiveTrialConfig().config_payload(), _RESULTS)
        assert set(payload["provenance"]) >= {"recorded_at_unix", "host", "python"}
        stripped = {"config": payload["config"], "results": payload["results"]}
        assert payload_digest(stripped) == payload["digest"]
