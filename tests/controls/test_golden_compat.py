"""Golden-compatibility regression suite for the controls refactor.

Three byte-for-byte contracts:

* an *explicit* ``failure_detector="binary"`` + ``hedging=None`` config
  reproduces the exact pinned ``SimulationResult.digest()`` values of the
  pre-controls simulator (the pins are imported from the scenario golden
  suite so there is a single source of truth);
* the default control specs are invisible to runner payloads, so cache keys
  and payload hashes predating the controls axes are unchanged;
* the ``speculative`` experiment produces identical rows whether the retry
  mechanism is spelled as the paper's ``retry_percentile`` or as the
  ``hedging="hedge:quantile=..."`` control spec it is shorthand for.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.experiments import registry as experiment_registry
from repro.experiments.common import ClusterScale
from repro.runner.spec import config_to_payload, content_hash, payload_to_config
from repro.simulator import SimulationConfig, run_simulation

# The scenario golden suite owns the pinned digests; load it by path (the
# test tree is not a package) so the pins cannot drift apart.
_GOLDEN_PATH = Path(__file__).resolve().parents[1] / "scenarios" / "test_golden_digests.py"
_spec = importlib.util.spec_from_file_location("scenario_golden_pins", _GOLDEN_PATH)
_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_golden)

LEGACY_CONFIGS = _golden.LEGACY_CONFIGS
LEGACY_DIGESTS = _golden.LEGACY_DIGESTS
SCENARIO_DIGESTS = _golden.SCENARIO_DIGESTS
scenario_config = _golden.scenario_config


class TestExplicitBinaryMatchesGoldenPins:
    @pytest.mark.parametrize("name", sorted(LEGACY_CONFIGS))
    def test_explicit_binary_reproduces_legacy_digest(self, name):
        config = SimulationConfig(
            **LEGACY_CONFIGS[name], failure_detector="binary", hedging=None
        )
        assert run_simulation(config).digest() == LEGACY_DIGESTS[name], (
            "explicitly selecting the 'binary' detector must be byte-identical "
            "to the pre-controls simulator"
        )

    @pytest.mark.parametrize(
        "scenario,strategy",
        [("crash-recovery", "C3"), ("crash-recovery", "LOR"), ("gc-storm", "C3")],
        ids=str,
    )
    def test_explicit_binary_reproduces_scenario_digest(self, scenario, strategy):
        # crash-recovery is the scenario where liveness filtering actually
        # runs, so it is the sharpest probe of the detector seam.
        config = scenario_config(scenario, strategy).copy(
            failure_detector="binary", hedging=None
        )
        assert run_simulation(config).digest() == SCENARIO_DIGESTS[(scenario, strategy)]

    def test_ground_truth_alias_is_the_same_run(self):
        config = scenario_config("crash-recovery", "C3").copy(
            failure_detector="GROUND_TRUTH"
        )
        assert config.failure_detector == "binary"
        assert run_simulation(config).digest() == SCENARIO_DIGESTS[("crash-recovery", "C3")]

    def test_phi_detector_changes_crash_recovery_behavior(self):
        # The pins above are only meaningful if a non-default detector
        # actually changes the run on the same config.
        config = scenario_config("crash-recovery", "C3").copy(
            failure_detector="phi:threshold=2,min_intervals=2"
        )
        result = run_simulation(config)
        assert result.completed_requests == 400
        assert result.digest() != SCENARIO_DIGESTS[("crash-recovery", "C3")]


class TestDefaultControlsInvisibleToPayloads:
    def test_default_specs_omitted_from_payload(self):
        payload = config_to_payload(SimulationConfig())
        assert "failure_detector" not in payload
        assert "hedging" not in payload

    def test_explicit_binary_hashes_like_default(self):
        default = SimulationConfig(num_requests=500, strategy="C3", seed=3)
        explicit = default.copy(failure_detector="binary", hedging=None)
        assert content_hash(config_to_payload(default)) == content_hash(
            config_to_payload(explicit)
        )

    def test_non_default_specs_hash_distinctly(self):
        base = SimulationConfig(num_requests=500)
        keys = {
            content_hash(config_to_payload(base.copy(**overrides)))
            for overrides in (
                {},
                {"failure_detector": "phi"},
                {"failure_detector": "phi:threshold=6"},
                {"hedging": "hedge"},
                {"hedging": "hedge:quantile=0.99"},
            )
        }
        assert len(keys) == 5

    def test_payload_round_trip_restores_defaults(self):
        config = SimulationConfig(num_requests=500, strategy="LOR")
        rebuilt = payload_to_config(config_to_payload(config))
        assert rebuilt.failure_detector == "binary"
        assert rebuilt.hedging is None
        assert rebuilt == config

    def test_payload_round_trip_preserves_control_specs(self):
        config = SimulationConfig(
            num_requests=500,
            failure_detector="phi:threshold=6",
            hedging="hedge:quantile=0.99,max_extra=2",
        )
        rebuilt = payload_to_config(config_to_payload(config))
        assert rebuilt == config


class TestSpeculativeExperimentEquivalence:
    def test_percentile_and_hedge_spec_rows_match(self):
        # The experiment's two argument spellings of one retry mechanism —
        # the paper's percentile and the hedging control spec it is shorthand
        # for — must produce identical experiment rows (same RNG draws, same
        # speculation thresholds, same completions).
        run = experiment_registry.get("speculative")
        scale = ClusterScale(
            num_nodes=5, num_generators=10, duration_ms=400.0, num_keys=500
        )
        legacy = run(retry_percentile=99.0, scale=scale)
        spec = run(hedging="hedge:quantile=0.99", scale=scale)
        assert legacy.headers == spec.headers
        assert legacy.rows == spec.rows
