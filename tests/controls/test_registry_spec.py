"""Registry and spec-grammar tests for the control-plane registry.

The generic behaviour is the contract of ``tests/registry_contract.py``
(shared with the strategy registry) run over this registry's data; what is
asserted here directly is about kinds and about particular controls.
"""

from __future__ import annotations

import pytest
from registry_contract import RegistryContract, SpecParsingContract, spec_properties_contract

from repro.controls import (
    CONTROL_KINDS,
    ControlSpec,
    control_names,
    get_control,
    kind_label,
    resolve_control,
)
from repro.controls.detectors import (
    BinaryFailureDetector,
    PhiAccrualFailureDetector,
)
from repro.controls.hedging import QuantileHedging
from repro.controls.registry import CONTROLS
from repro.core.rate_control import CubicRateController


class TestRegistryListing(RegistryContract):
    registry = CONTROLS
    ALIASES = [("C3_RATE", "cubic"), ("ground_truth", "binary"), ("Phi_Accrual", "phi"), ("speculative", "hedge")]
    TYPO = ("phii", "phi")

    # The same lookups through the public name bound to the registry.
    def test_aliases_resolve(self):
        assert resolve_control("GROUND_TRUTH").name == "binary"
        assert resolve_control("PHI_ACCRUAL").name == "phi"
        assert resolve_control("SPECULATIVE").name == "hedge"
        assert resolve_control("SPECULATIVE_RETRY").name == "hedge"
        assert resolve_control("CUBIC_RATE").name == "cubic"

    def test_lookup_is_case_insensitive(self):
        assert resolve_control("PHI").name == "phi"
        assert resolve_control("Hedge").name == "hedge"

    def test_builtin_controls_registered(self):
        assert set(control_names()) >= {"binary", "phi", "hedge", "cubic"}

    def test_kind_filtering(self):
        assert set(control_names(kind="detector")) == {"binary", "phi"}
        assert control_names(kind="hedge") == ("hedge",)
        assert control_names(kind="rate") == ("cubic",)

    def test_every_control_has_a_valid_kind(self):
        for name in control_names():
            assert get_control(name).kind in CONTROL_KINDS

    def test_kind_labels(self):
        assert kind_label("detector") == "failure detector"
        assert kind_label("hedge") == "hedging policy"
        assert kind_label("rate") == "rate controller"

    def test_kind_mismatch_is_a_precise_error(self):
        with pytest.raises(ValueError, match="hedging policy, not a failure detector"):
            resolve_control("hedge", kind="detector")

    def test_did_you_mean_stays_within_the_kind(self):
        with pytest.raises(ValueError, match="valid failure detectors: binary, phi; did you mean 'phi'"):
            resolve_control("phii", kind="detector")
        with pytest.raises(ValueError) as err:
            resolve_control("phii", kind="hedge")
        assert "did you mean" not in str(err.value)

    def test_param_defaults_exposed(self):
        phi = get_control("phi")
        assert phi.param_defaults()["threshold"] == 8.0
        hedge = get_control("hedge")
        assert hedge.param_defaults()["quantile"] == 0.95


class TestSpecParsing(SpecParsingContract):
    spec_cls = ControlSpec
    # 8.0 is phi's registered default, so the override vanishes.
    DEFAULTED = [("phi:threshold=8", "phi")]
    ALIASED = ("hedge:q=0.99", "hedge:quantile=0.99")
    MAPPING = ({"name": "phi", "params": {"threshold": 6}}, "phi:threshold=6")
    BAD_MAPPING = {"name": "phi", "threshold": 6}
    NON_DEFAULT = ("hedge:quantile=0.99,max_extra=2", {"quantile": 0.99, "max_extra": 2})
    PARAM_TYPO = ("phi:treshold=6", "threshold")

    def test_invalid_values_rejected_at_parse_time(self):
        with pytest.raises(ValueError, match="threshold must be positive"):
            ControlSpec.parse("phi:threshold=-1")
        with pytest.raises(ValueError, match="quantile must be in"):
            ControlSpec.parse("hedge:quantile=1.5")
        with pytest.raises(ValueError):
            ControlSpec.parse("cubic:beta=1.5")

    def test_kind_property(self):
        assert ControlSpec.parse("phi").kind == "detector"
        assert ControlSpec.parse("hedge").kind == "hedge"
        assert ControlSpec.parse("cubic").kind == "rate"

    def test_str_is_canonical(self):
        # Values coerce against the registered param dataclass, so integer
        # and float spellings of a float field share one canonical string.
        assert str(ControlSpec.parse("phi:threshold=6")) == "phi:threshold=6.0"
        assert str(ControlSpec.parse("phi:threshold=6.0")) == "phi:threshold=6.0"


#: Valid example values per (control, param) for the round-trip suite.
_PARAM_VALUES = {
    "binary": {},
    "phi": {"threshold": (2.0, 8.0, 12.5), "window": (10, 1000), "min_intervals": (1, 5)},
    "hedge": {"quantile": (0.5, 0.95, 0.999), "max_extra": (1, 3), "min_samples": (5, 50)},
    "cubic": {"beta": (0.1, 0.5), "initial_rate": (1.0, 40.0), "max_rate": (50.0, 1000.0), "gamma": (2e-4,)},
}


class TestSpecProperties(spec_properties_contract(ControlSpec, _PARAM_VALUES)):
    pass


class TestSpecBuild:
    def test_binary_build_consumes_context(self):
        class Tracker:
            count = 0

        servers = {0: object()}
        tracker = Tracker()
        detector = ControlSpec.parse("binary").build(down_tracker=tracker, servers=servers)
        assert isinstance(detector, BinaryFailureDetector)
        assert detector.down_tracker is tracker
        assert detector.servers is servers
        assert not detector.suspicious()

    def test_phi_build_applies_overrides(self):
        detector = ControlSpec.parse("phi:threshold=5,window=10").build()
        assert isinstance(detector, PhiAccrualFailureDetector)
        assert detector.threshold == 5.0
        assert detector.window == 10

    def test_hedge_build(self):
        policy = ControlSpec.parse("hedge:quantile=0.9,max_extra=3").build()
        assert isinstance(policy, QuantileHedging)
        assert policy.quantile == 0.9
        assert policy.max_extra == 3

    def test_cubic_build(self):
        controller = ControlSpec.parse("cubic:initial_rate=4,max_rate=40").build()
        assert isinstance(controller, CubicRateController)
        assert controller.srate == 4.0
        assert controller.config.max_rate == 40.0
