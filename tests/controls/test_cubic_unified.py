"""Cross-module equivalence tests for the unified CUBIC implementation.

The cubic growth law lives in exactly one place (:mod:`repro.core.cubic`);
these tests pin every consumer — the rate controller, the default-gamma
selection in ``C3Config``, the Figure 5 region boundaries, and the
registered ``"cubic"`` control — to that single implementation, so the
constant/formula drift that previously existed between copies cannot
reappear silently.
"""

from __future__ import annotations

import math
import typing

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.controls import ControlSpec, cubic_config_from_params
from repro.core.config import C3Config
from repro.core.cubic import (
    DEFAULT_BETA,
    DEFAULT_SADDLE_MS,
    DEFAULT_SMAX,
    cubic_inflection_ms,
    cubic_rate,
    gamma_for_saddle,
)
from repro.core.rate_control import CubicRateController
from repro.experiments.fig05_cubic_curve import region_boundaries

rates = st.floats(min_value=0.5, max_value=500.0, allow_nan=False)
betas = st.floats(min_value=0.05, max_value=0.9, allow_nan=False)
gammas = st.floats(min_value=1e-6, max_value=1.0, allow_nan=False)


class TestSharedConstants:
    def test_config_defaults_come_from_the_shared_module(self):
        config = C3Config()
        assert config.beta == DEFAULT_BETA
        assert config.saddle_duration_ms == DEFAULT_SADDLE_MS
        assert config.smax == DEFAULT_SMAX

    def test_registered_cubic_params_match_config_defaults(self):
        from repro.controls.rate import CubicRateParams

        params = CubicRateParams()
        config = C3Config()
        for name in (
            "initial_rate", "rate_delta_ms", "beta", "smax", "saddle_duration_ms",
            "gamma", "hysteresis_ms", "ewma_alpha", "min_rate", "max_rate",
            "rate_excess_tolerance", "rate_min_utilisation",
        ):
            assert getattr(params, name) == getattr(config, name), name
        config_hints = typing.get_type_hints(C3Config)
        for name, hint in typing.get_type_hints(CubicRateParams).items():
            assert hint == config_hints[name], name


class TestFormulaInverses:
    @given(rates, betas)
    def test_effective_gamma_inverts_the_inflection_formula(self, r0, beta):
        # The default gamma is chosen so the cubic's inflection sits at half
        # the configured saddle duration — gamma_for_saddle and
        # cubic_inflection_ms must be exact inverses.
        config = C3Config(beta=beta)
        gamma = config.effective_gamma(r0)
        assert math.isclose(
            cubic_inflection_ms(r0, beta, gamma),
            config.saddle_duration_ms / 2.0,
            rel_tol=1e-9,
        )

    @given(rates, betas, st.floats(min_value=10.0, max_value=500.0))
    def test_gamma_for_saddle_round_trips(self, r0, beta, saddle_ms):
        gamma = gamma_for_saddle(saddle_ms, beta, r0)
        assert math.isclose(cubic_inflection_ms(r0, beta, gamma), saddle_ms / 2.0, rel_tol=1e-9)

    @given(rates, betas, gammas)
    def test_curve_crosses_saturation_rate_at_the_inflection(self, r0, beta, gamma):
        inflection = cubic_inflection_ms(r0, beta, gamma)
        assert math.isclose(cubic_rate(inflection, r0, beta, gamma), r0, rel_tol=1e-9, abs_tol=1e-9)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            cubic_inflection_ms(10.0, 0.2, 0.0)
        with pytest.raises(ValueError):
            cubic_inflection_ms(-1.0, 0.2, 1e-4)


class TestFig05UsesTheSharedFormulas:
    @given(rates, betas, gammas)
    def test_region_boundaries_centre_on_the_shared_inflection(self, r0, beta, gamma):
        boundaries = region_boundaries(r0, beta, gamma)
        assert boundaries["inflection_ms"] == cubic_inflection_ms(r0, beta, gamma)
        # The saddle band is symmetric about the inflection and its edges sit
        # exactly `tolerance * R0` away on the shared curve.
        half = boundaries["saddle_width_ms"] / 2.0
        edge_rate = cubic_rate(boundaries["inflection_ms"] + half, r0, beta, gamma)
        assert math.isclose(edge_rate - r0, 0.05 * r0, rel_tol=1e-6)


def _drive(controller: CubicRateController) -> list[float]:
    """A fixed burst/lull schedule; returns the srate trace it produces."""
    trace = []
    now = 0.0
    for cycle in range(30):
        # Burst: responses faster than the send rate → cubic growth.
        for _ in range(20):
            now += 0.4
            controller.try_acquire(now)
            controller.on_response(now)
            trace.append(controller.srate)
        # Lull: send without responses → the controller detects falling
        # behind and multiplicatively decreases.
        for _ in range(10):
            now += 2.0
            controller.try_acquire(now)
            controller.on_response(now + 0.01)
            trace.append(controller.srate)
    return trace


class TestSpecBuiltControllerEquivalence:
    def test_spec_built_matches_config_built_measurement_for_measurement(self):
        overrides = dict(initial_rate=4.0, beta=0.4, smax=6.0, rate_delta_ms=10.0)
        spec_controller = ControlSpec.parse(
            "cubic:initial_rate=4.0,beta=0.4,smax=6.0,rate_delta_ms=10.0"
        ).build()
        config_controller = CubicRateController(C3Config(**overrides))
        spec_trace = _drive(spec_controller)
        config_trace = _drive(config_controller)
        assert spec_trace == config_trace
        assert spec_controller.increases == config_controller.increases
        assert spec_controller.decreases == config_controller.decreases
        assert spec_controller.saturation_rate == config_controller.saturation_rate

    def test_cubic_config_from_params_layers_onto_a_base(self):
        base = C3Config(initial_rate=7.0, beta=0.3)
        config = cubic_config_from_params({"smax": 20.0}, base)
        assert config.initial_rate == 7.0
        assert config.beta == 0.3
        assert config.smax == 20.0

    def test_default_spec_is_the_default_config(self):
        controller = ControlSpec.parse("cubic").build()
        assert controller.config == C3Config()
