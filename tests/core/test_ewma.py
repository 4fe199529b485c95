"""Unit tests for the EWMA primitives."""

import pytest

from repro.core.ewma import EWMA


class TestEWMA:
    def test_first_sample_seeds_value(self):
        ewma = EWMA(alpha=0.5)
        assert not ewma.initialized
        ewma.update(10.0)
        assert ewma.value == 10.0
        assert ewma.initialized

    def test_smoothing_formula(self):
        ewma = EWMA(alpha=0.25)
        ewma.update(100.0)
        ewma.update(0.0)
        assert ewma.value == pytest.approx(0.25 * 0.0 + 0.75 * 100.0)

    def test_alpha_one_tracks_latest_sample(self):
        ewma = EWMA(alpha=1.0)
        for value in (5.0, 9.0, 2.0):
            ewma.update(value)
            assert ewma.value == value

    def test_initial_value_is_respected(self):
        ewma = EWMA(alpha=0.5, initial=40.0)
        assert ewma.value == 40.0
        ewma.update(0.0)
        assert ewma.value == pytest.approx(20.0)

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            EWMA(alpha=0.0)
        with pytest.raises(ValueError):
            EWMA(alpha=1.5)

    def test_nan_rejected(self):
        ewma = EWMA()
        with pytest.raises(ValueError):
            ewma.update(float("nan"))

    def test_count_tracks_updates(self):
        ewma = EWMA()
        for i in range(7):
            ewma.update(float(i))
        assert ewma.count == 7

    def test_reset_clears_state(self):
        ewma = EWMA()
        ewma.update(3.0)
        ewma.reset()
        assert not ewma.initialized
        assert ewma.value == 0.0
        assert ewma.count == 0

    def test_reset_with_seed_value(self):
        ewma = EWMA()
        ewma.update(3.0)
        ewma.reset(7.0)
        assert ewma.value == 7.0

    def test_value_defaults_to_zero(self):
        assert EWMA().value == 0.0

    def test_converges_to_constant_input(self):
        ewma = EWMA(alpha=0.3)
        for _ in range(200):
            ewma.update(42.0)
        assert ewma.value == pytest.approx(42.0)
