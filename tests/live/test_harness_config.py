"""Unit tests for live trial configuration, scheduling, and payloads."""

import pytest

from repro.live.harness import (
    LiveTrialConfig,
    build_payload,
    payload_digest,
    scenario_schedule,
)

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

    def test_config_payload_is_json_round_trippable(self):
        import json

        payload = LiveTrialConfig(scenario="gc-storm").config_payload()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["schema"] == "live-trial-v2"


class TestScenarioSchedule:
    def test_baseline_has_no_ops(self):
        assert scenario_schedule(LiveTrialConfig(scenario="baseline")) == []

    def test_slow_node_without_end_slows_once(self):
        config = LiveTrialConfig(
            scenario="slow-node", scenario_params={"factor": 3.0, "start_ms": 100.0}
        )
        assert scenario_schedule(config) == [
            (100.0, 0, {"op": "slow", "factor": 3.0})
        ]

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
        assert scenario_schedule(config) == [
            (200.0, 0, {"op": "crash"}),
            (500.0, 0, {"op": "restore"}),
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
        other_results = build_payload(
            config_payload, {**_RESULTS, "completed": 101}, provenance={}
        )
        other_config = build_payload(
            LiveTrialConfig(seed=43).config_payload(), _RESULTS, provenance={}
        )
        assert base["digest"] != other_results["digest"]
        assert base["digest"] != other_config["digest"]

    def test_default_provenance_is_stamped_but_unhashed(self):
        payload = build_payload(LiveTrialConfig().config_payload(), _RESULTS)
        assert set(payload["provenance"]) >= {"recorded_at_unix", "host", "python"}
        stripped = {"config": payload["config"], "results": payload["results"]}
        assert payload_digest(stripped) == payload["digest"]
