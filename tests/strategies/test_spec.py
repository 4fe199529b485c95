"""Tests for the strategy registry and the StrategySpec API.

Three layers of guarantees:

* **Registry** — every strategy registers exactly once, aliases resolve,
  duplicates are rejected, unknown names/params fail with a did-you-mean
  suggestion instead of a deep ``TypeError``.
* **Spec canonicalization** — parse/format round-trips, every accepted
  spelling (bare name, spec string, mapping, StrategySpec) of the same
  configuration normalizes to the same canonical string and digest
  (pinned), and defaults are dropped.
* **Byte-identity** — configs built from bare strategy names produce the
  exact payloads, cache keys, and simulation digests they produced before
  the registry redesign (pinned pre-redesign hashes), and parameterized
  specs build the same ``C3Config`` the retired ``c3_config`` field was
  set to by hand.

The first two are the contract of ``tests/registry_contract.py`` (shared with
the control registry) run over this registry's data, plus the assertions
about particular strategies.
"""

import pytest
from hypothesis import given, settings
from registry_contract import RegistryContract, SpecParsingContract, spec_cases, spec_properties_contract

from repro.core.config import C3Config
from repro.core.scheduler import C3Scheduler
from repro.runner.spec import config_to_payload, content_hash
from repro.simulator import ReplicaSelectionSimulation, SimulationConfig, run_simulation
from repro.strategies import (
    STRATEGY_NAMES,
    StrategySpec,
    get_strategy,
    make_selector,
    resolve_strategy,
    strategy_names,
)
from repro.strategies.registry import STRATEGIES


def fake_state(server_id):
    return (1.0, 4.0)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry(RegistryContract):
    registry = STRATEGIES
    ALIASES = [
        ("ORACLE", "ORA"),
        ("least_outstanding", "LOR"),
        ("Round_Robin", "RR"),
        ("random", "RAND"),
        ("power_of_two", "P2C"),
        ("dynamic_snitch", "DS"),
        ("c3", "C3"),
    ]
    TYPO = ("c33", "C3")

    def test_strategy_names_matches_legacy_tuple(self):
        assert strategy_names() == ("C3", "ORA", "LOR", "RR", "RAND", "P2C", "DS")
        assert STRATEGY_NAMES == strategy_names()

    @pytest.mark.parametrize("name", ["LRT", "least_response_time", "WRAND", "weighted_random"])
    def test_removed_strategies_are_unknown_names(self, name):
        """Least-response-time and weighted-random are gone, aliases included."""
        with pytest.raises(ValueError, match=f"unknown strategy '{name}'"):
            resolve_strategy(name)

    def test_public_names_are_the_registry(self):
        assert resolve_strategy("lor") is get_strategy("LOR") is STRATEGIES.get("LOR")

    def test_param_aliases_reported_per_field(self):
        info = get_strategy("C3")
        assert info.aliases_for("gamma") == ("cubic_c",)
        assert info.aliases_for("score_exponent") == ("b",)
        assert info.aliases_for("beta") == ()


# ---------------------------------------------------------------------------
# Spec parsing and canonicalization
# ---------------------------------------------------------------------------


class TestSpecParsing(SpecParsingContract):
    spec_cls = StrategySpec
    DEFAULTED = [("c3:score_exponent=3.0", "C3"), ("c3:b=3", "C3"), ("ds:iowait_weight=100", "DS")]
    ALIASED = ("c3:cubic_c=2e-4", "c3:gamma=2e-4")
    MAPPING = ({"name": "c3", "params": {"cubic_c": 2e-4}}, "c3:cubic_c=2e-4")
    BAD_MAPPING = {"name": "c3", "param": {}}
    NON_DEFAULT = ("rr:rate_limited=false", {"rate_limited": False})
    PARAM_TYPO = ("c3:cubicc=1e-4", "cubic_c")

    def test_bare_name_stays_bare(self):
        assert StrategySpec.parse("C3").canonical() == "C3"
        assert StrategySpec.parse("lor").canonical() == "LOR"

    def test_params_parse_and_canonicalize(self):
        spec = StrategySpec.parse("c3:cubic_c=2e-4")
        assert spec.name == "C3"
        assert spec.params_dict == {"gamma": 0.0002}
        assert spec.canonical() == "C3:gamma=0.0002"

    def test_params_sorted_in_canonical_form(self):
        a = StrategySpec.parse("c3:beta=0.5,b=2")
        b = StrategySpec.parse("c3:b=2,beta=0.5")
        assert a == b
        assert a.canonical() == "C3:beta=0.5,score_exponent=2.0"

    def test_unknown_param_lists_valid_params(self):
        with pytest.raises(ValueError, match="valid parameters"):
            StrategySpec.parse("p2c:alhpa=0.5")

    def test_strategy_with_no_params_rejects_any_param(self):
        with pytest.raises(ValueError, match=r"valid parameters: \(none\)"):
            StrategySpec.parse("lor:alpha=0.5")

    def test_malformed_pairs_rejected(self):
        with pytest.raises(ValueError, match="expected KEY=VALUE"):
            StrategySpec.parse("c3:beta")
        with pytest.raises(ValueError, match="no parameters"):
            StrategySpec.parse("c3:")
        with pytest.raises(ValueError, match="repeated"):
            StrategySpec.parse("c3:beta=0.4,beta=0.5")

    def test_alias_and_target_together_rejected(self):
        with pytest.raises(ValueError, match="more than once"):
            StrategySpec.parse("c3:cubic_c=1e-4,gamma=2e-4")

    def test_value_type_coercion_and_rejection(self):
        assert StrategySpec.parse("c3:b=2").params_dict == {"score_exponent": 2.0}
        with pytest.raises(ValueError, match="expects"):
            StrategySpec.parse("c3:beta=fast")
        with pytest.raises(ValueError, match="boolean"):
            StrategySpec.parse("c3:beta=true")

    def test_non_finite_floats_rejected_at_parse_time(self):
        # repr(nan)/repr(inf) are not JSON, so accepting them would break
        # the parse(canonical()) round trip and poison stored configs.
        for bad in ("p2c:alpha=NaN", "c3:beta=Infinity", "c3:gamma=-Infinity"):
            with pytest.raises(ValueError, match="must be finite"):
                StrategySpec.parse(bad)

    def test_value_validation_happens_at_parse_time(self):
        with pytest.raises(ValueError, match="beta"):
            StrategySpec.parse("c3:beta=2")
        with pytest.raises(ValueError, match="beta"):
            StrategySpec.parse("rr:beta=1.5")
        with pytest.raises(ValueError, match="badness_threshold"):
            StrategySpec.parse("ds:badness_threshold=1.5")


#: Valid example values per (strategy, param) for the round-trip suite.
_PARAM_VALUES = {
    "C3": {
        "score_exponent": (1.0, 2.0, 4.0),
        "concurrency_weight": (0.0, 1.0, 150.0),
        "beta": (0.1, 0.5, 0.9),
        "gamma": (2e-4, 8e-4, 1.5),
        "initial_rate": (1.0, 100.0),
        "rate_control_enabled": (True, False),
        "max_rate": (50.0, 1000.0),
    },
    "RR": {
        "rate_limited": (True, False),
        "initial_rate": (5.0, 50.0),
        "beta": (0.1, 0.8),
    },
    "P2C": {"alpha": (0.1, 0.5, 0.99)},
    "DS": {
        "update_interval_ms": (50.0, 250.0),
        "iowait_weight": (1.0, 10.0, 200.0),
        "badness_threshold": (0.0, 0.2, 0.9),
        "history_size": (10, 500),
    },
}


class TestSpecProperties(spec_properties_contract(StrategySpec, _PARAM_VALUES)):
    @settings(max_examples=150, deadline=None)
    @given(spec_cases(_PARAM_VALUES))
    def test_config_normalization_matches_spec(self, case):
        name, params = case
        spec = StrategySpec.of(name, params)
        config = SimulationConfig(strategy={"name": name, "params": params})
        assert config.strategy == spec.canonical()
        assert config.strategy_spec == spec

    def test_pinned_spec_digests(self):
        # Digest stability contract: these pins only move if the canonical
        # form or hashing scheme changes, which invalidates every cache.
        assert StrategySpec.parse("C3").digest() == (
            "88195afd91f230da97fe6548cc7bf87cac57440ace5321756b9ebbca4fc72495"
        )
        assert StrategySpec.parse("c3:cubic_c=2e-4").digest() == (
            "911465971e4b05cfad66308eb856c7bc6dac18a5c56966c32e5c2293de29c368"
        )
        assert StrategySpec.parse("LOR").digest() == (
            "db996231b88ecae96b497f553c10e38ac7d9058e96fcf216140d285c0ae5c9e9"
        )
        assert StrategySpec.parse("rr:rate_limited=false").digest() == (
            "578285dd19762e7a7a16e06df437ec8195431a99f3f9285a5c37eeec09e3adda"
        )


# ---------------------------------------------------------------------------
# Byte-identity with the pre-registry era
# ---------------------------------------------------------------------------


class TestBareNameByteIdentity:
    #: content_hash(config_to_payload(...)) captured BEFORE the registry
    #: redesign: bare-name configs must keep their exact cache keys.
    PRE_REDESIGN_PAYLOAD_HASHES = {
        "default": (
            dict(),
            "89cb3c7f04920724ead6817b4b1a5d9ce5382824be1963bdce9862a201b02ad2",
        ),
        "lor_small": (
            dict(num_servers=9, num_clients=10, num_requests=300, utilization=0.6,
                 strategy="LOR", seed=7),
            "4440ec4e27fe900d4682708b7d627f0ed14c139bcd1f04f5788e03f49785fe1d",
        ),
        "rr_interval": (
            dict(num_servers=9, num_clients=10, num_requests=250, utilization=0.7,
                 strategy="RR", seed=11, fluctuation_interval_ms=50.0),
            "e00f92ad3000f2751d6473c06bff7cb903966494103cf5ab7cf124be59d3fb83",
        ),
    }

    @pytest.mark.parametrize("label", sorted(PRE_REDESIGN_PAYLOAD_HASHES))
    def test_payload_hash_unchanged(self, label):
        overrides, expected = self.PRE_REDESIGN_PAYLOAD_HASHES[label]
        payload = config_to_payload(SimulationConfig(**overrides))
        assert content_hash(payload) == expected, (
            f"cache key for bare-name config {label!r} drifted from its "
            "pre-redesign value — every cached sweep trial would be invalidated"
        )

    def test_strategy_field_stays_a_plain_name(self):
        assert config_to_payload(SimulationConfig())["strategy"] == "C3"
        assert config_to_payload(SimulationConfig(strategy="c3"))["strategy"] == "C3"

    def test_spec_equivalent_to_c3_config_escape_hatch(self):
        # The retired SimulationConfig.c3_config field took a hand-built
        # C3Config; a spec builds the same one over the with_clients base,
        # so every selector of the run is configured identically.
        simulation = ReplicaSelectionSimulation(
            SimulationConfig(strategy="c3:b=2,beta=0.4", num_servers=9, num_clients=10, seed=3)
        )
        assert simulation.config.strategy == "C3:beta=0.4,score_exponent=2.0"
        by_hand = C3Config(score_exponent=2.0, beta=0.4).with_clients(10)
        assert all(client.selector.config == by_hand for client in simulation.clients)
        with pytest.raises(TypeError):
            SimulationConfig(c3_config=by_hand)

    def test_spec_params_change_the_measurement(self):
        base = dict(num_servers=9, num_clients=10, num_requests=200, utilization=0.9, seed=3)
        default = run_simulation(SimulationConfig(strategy="C3", **base))
        ranked_only = run_simulation(
            SimulationConfig(strategy="C3:rate_control_enabled=false", **base)
        )
        assert default.digest() != ranked_only.digest()


# ---------------------------------------------------------------------------
# Building from specs
# ---------------------------------------------------------------------------


class TestSpecBuild:
    def test_c3_params_applied_over_base_config(self):
        selector = StrategySpec.parse("c3:cubic_c=2e-4,b=2").build(
            c3_config=C3Config().with_clients(40)
        )
        assert isinstance(selector, C3Scheduler)
        assert selector.config.gamma == 0.0002
        assert selector.config.score_exponent == 2.0
        assert selector.config.concurrency_weight == 40.0  # base kept where unset

    def test_make_selector_accepts_spec_strings(self):
        selector = make_selector("rr:rate_limited=false")
        assert selector.rate_limited is False

    def test_make_selector_kwargs_validated_with_did_you_mean(self):
        with pytest.raises(ValueError, match="did you mean 'rate_limited'"):
            make_selector("RR", rate_limitd=False)

    def test_make_selector_kwargs_override_spec_params(self):
        selector = make_selector("p2c:alpha=0.5", alpha=0.25)
        assert selector.alpha == 0.25

    def test_oracle_still_requires_state_fn(self):
        with pytest.raises(ValueError, match="requires server_state_fn"):
            StrategySpec.parse("ORA").build()
        assert StrategySpec.parse("oracle").build(server_state_fn=fake_state) is not None

    def test_simulation_runs_with_param_specs(self):
        result = run_simulation(
            SimulationConfig(
                num_servers=9, num_clients=8, num_requests=150, utilization=0.6,
                strategy="ds:badness_threshold=0.2", seed=1,
            )
        )
        assert result.completed_requests == 150
        assert result.strategy == "DS:badness_threshold=0.2"
