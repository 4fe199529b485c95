"""Unit tests for the CUBIC rate controller, limiter and trackers."""

import pytest

from repro.core.config import C3Config
from repro.core.rate_control import CubicRateController, RateLimiter, ReceiveRateTracker, cubic_rate


class TestCubicRateFunction:
    def test_rate_at_inflection_equals_saturation_rate(self):
        r0, beta, gamma = 50.0, 0.2, 1e-4
        inflection = (beta * r0 / gamma) ** (1.0 / 3.0)
        assert cubic_rate(inflection, r0, beta, gamma) == pytest.approx(r0)

    def test_rate_at_zero_is_r0_times_one_minus_beta(self):
        r0, beta, gamma = 50.0, 0.2, 1e-4
        assert cubic_rate(0.0, r0, beta, gamma) == pytest.approx(r0 * (1.0 - beta))

    def test_monotonically_increasing(self):
        r0, beta, gamma = 20.0, 0.2, 1e-4
        samples = [cubic_rate(t, r0, beta, gamma) for t in range(0, 300, 10)]
        assert all(b >= a for a, b in zip(samples, samples[1:]))

    def test_probing_region_exceeds_r0(self):
        r0, beta, gamma = 20.0, 0.2, 1e-4
        assert cubic_rate(500.0, r0, beta, gamma) > r0

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            cubic_rate(1.0, 1.0, 0.2, 0.0)

    def test_negative_saturation_rejected(self):
        with pytest.raises(ValueError):
            cubic_rate(1.0, -1.0, 0.2, 1.0)


def _limited(rate: float, delta_ms: float = 10.0) -> CubicRateController:
    """A controller whose limiter admits ``rate`` sends per ``delta_ms`` window.

    Sends take their permit through :meth:`CubicRateController.try_acquire`,
    the one acquire path every executor runs.
    """
    return CubicRateController(C3Config(initial_rate=rate, rate_delta_ms=delta_ms))


class TestRateLimiter:
    def test_admits_up_to_rate_per_window(self):
        ctrl = _limited(3.0)
        grants = [ctrl.try_acquire(0.0) for _ in range(5)]
        assert grants == [True, True, True, False, False]

    def test_window_roll_replenishes(self):
        ctrl = _limited(2.0)
        assert ctrl.try_acquire(0.0)
        assert ctrl.try_acquire(0.0)
        assert not ctrl.try_acquire(5.0)
        assert ctrl.try_acquire(10.0)

    def test_fractional_rate_eventually_grants(self):
        """Rates below one request per window must not starve forever."""
        ctrl = _limited(0.25)
        assert not ctrl.try_acquire(0.0)
        granted_at = None
        t = 0.0
        while t < 200.0:
            t += 10.0
            if ctrl.try_acquire(t):
                granted_at = t
                break
        assert granted_at is not None and granted_at <= 50.0

    def test_unused_allowance_carries_bounded(self):
        ctrl = _limited(2.0)
        # Skip many idle windows; the carried allowance is bounded by one
        # bucket (max(rate, 1)), so at most rate + carry permits are granted.
        grants = sum(ctrl.try_acquire(1000.0) for _ in range(10))
        assert grants <= 4

    def test_time_until_available_zero_when_permits_left(self):
        limiter = RateLimiter(rate=2.0, delta_ms=10.0)
        assert limiter.time_until_available(0.0) == 0.0

    def test_time_until_available_after_exhaustion(self):
        ctrl = _limited(1.0)
        assert ctrl.try_acquire(2.0)
        wait = ctrl.limiter.time_until_available(2.0)
        assert 0.0 < wait <= 10.0

    def test_rate_setter_validation(self):
        limiter = RateLimiter(rate=1.0)
        with pytest.raises(ValueError):
            limiter.rate = 0.0

    def test_clock_rewind_resets_window(self):
        ctrl = _limited(1.0)
        ctrl.try_acquire(100.0)
        # Rewinding the clock must not crash or starve.
        assert ctrl.try_acquire(0.0)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            RateLimiter(rate=0.0)
        with pytest.raises(ValueError):
            RateLimiter(rate=1.0, delta_ms=0.0)


class TestReceiveRateTracker:
    def test_rate_reflects_responses_per_window(self):
        tracker = ReceiveRateTracker(delta_ms=10.0, alpha=1.0)
        for t in (1.0, 2.0, 3.0):
            tracker.record_response(t)
        # Roll into the next window so the previous one is folded in.
        assert tracker.rate(15.0) == pytest.approx(3.0)

    def test_rate_extrapolates_before_first_window_completes(self):
        tracker = ReceiveRateTracker(delta_ms=10.0)
        tracker.record_response(1.0)
        assert tracker.rate(2.0) > 0.0

    def test_idle_windows_decay_rate(self):
        tracker = ReceiveRateTracker(delta_ms=10.0, alpha=0.5)
        for t in (1.0, 2.0, 3.0, 4.0):
            tracker.record_response(t)
        busy = tracker.rate(15.0)
        idle = tracker.rate(200.0)
        assert idle < busy

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ReceiveRateTracker(delta_ms=0.0)
        with pytest.raises(ValueError):
            ReceiveRateTracker(alpha=0.0)

    def test_first_contact_on_a_wall_clock_does_not_spin(self):
        """A roll from epoch 0 to a unix-millisecond clock is ~8.5e10 windows."""
        tracker = ReceiveRateTracker(delta_ms=20.0, alpha=0.9)
        tracker.record_response(1.7e12)
        # The empty first window seeded the average with 0.0 ...
        assert tracker.rate(1.7e12) == 0.0
        # ... and this response is folded in when its own window closes.
        assert tracker.rate(1.7e12 + 20.0) == 0.9


class TestCubicRateController:
    def _config(self, **kw) -> C3Config:
        defaults = dict(initial_rate=10.0, rate_delta_ms=10.0, min_rate=0.5)
        defaults.update(kw)
        return C3Config(**defaults)

    def test_initial_state(self):
        ctrl = CubicRateController(self._config(), "s")
        assert ctrl.srate == 10.0
        assert ctrl.try_acquire(0.0)

    def test_decrease_when_server_falls_behind(self):
        config = self._config(hysteresis_ms=0.0)
        ctrl = CubicRateController(config, "s")
        # Send at the limit but receive little: srate > rrate and the client
        # is demonstrably using its allowance => multiplicative decrease.
        now = 0.0
        for window in range(6):
            for _ in range(10):
                ctrl.try_acquire(now)
            now += 10.0
            ctrl.on_response(now)
        assert ctrl.decreases >= 1
        assert ctrl.srate < 10.0
        assert ctrl.saturation_rate >= ctrl.srate

    def test_no_decrease_for_light_sender(self):
        """A client sending well below its limit must not collapse its rate."""
        config = self._config(hysteresis_ms=0.0)
        ctrl = CubicRateController(config, "s")
        now = 0.0
        for _ in range(50):
            ctrl.try_acquire(now)        # one send per window (10% of limit)
            now += 10.0
            ctrl.on_response(now)        # and its response arrives
        assert ctrl.decreases == 0
        assert ctrl.srate >= 10.0 or ctrl.increases >= 0

    def test_increase_when_receive_rate_exceeds_sending_rate(self):
        config = self._config(initial_rate=2.0, hysteresis_ms=0.0)
        ctrl = CubicRateController(config, "s")
        now = 0.0
        # Burst of responses (e.g. a queue draining) => rrate > srate.
        for _ in range(8):
            for _ in range(4):
                ctrl.on_response(now)
            now += 10.0
        assert ctrl.increases >= 1
        assert ctrl.srate > 2.0

    def test_increase_step_capped_by_smax(self):
        config = self._config(initial_rate=2.0, smax=1.0, hysteresis_ms=0.0)
        ctrl = CubicRateController(config, "s")
        before = ctrl.srate
        now = 0.0
        for _ in range(4):
            for _ in range(6):
                ctrl.on_response(now)
            now += 10.0
        # Each increase moves by at most smax.
        assert ctrl.srate <= before + ctrl.increases * config.smax + 1e-9

    def test_hysteresis_blocks_decrease_right_after_increase(self):
        config = self._config(initial_rate=2.0, hysteresis_ms=1_000.0)
        ctrl = CubicRateController(config, "s")
        now = 0.0
        # Trigger an increase first (the cubic curve anchored at the initial
        # rate needs to clear its saddle before increases register).
        for _ in range(12):
            for _ in range(5):
                ctrl.on_response(now)
            now += 10.0
        increases = ctrl.increases
        assert increases >= 1
        # Now saturate sends with no responses folding in: decrease should be
        # blocked by the hysteresis window.
        for _ in range(3):
            for _ in range(int(ctrl.srate)):
                ctrl.try_acquire(now)
            now += 10.0
            ctrl.on_response(now)
        assert ctrl.decreases == 0

    def test_rate_never_below_min_rate(self):
        config = self._config(min_rate=0.5, hysteresis_ms=0.0)
        ctrl = CubicRateController(config, "s")
        now = 0.0
        for _ in range(40):
            for _ in range(int(max(1, ctrl.srate))):
                ctrl.try_acquire(now)
            now += 10.0
            ctrl.on_response(now)
        assert ctrl.srate >= 0.5

    def test_max_rate_cap_respected(self):
        config = self._config(initial_rate=2.0, max_rate=5.0, hysteresis_ms=0.0)
        ctrl = CubicRateController(config, "s")
        now = 0.0
        for _ in range(30):
            for _ in range(10):
                ctrl.on_response(now)
            now += 10.0
        assert ctrl.srate <= 5.0

    def test_history_recorded_when_enabled(self):
        config = self._config(initial_rate=2.0, hysteresis_ms=0.0)
        ctrl = CubicRateController(config, "s")
        ctrl.record_history = True
        now = 0.0
        for _ in range(6):
            for _ in range(5):
                ctrl.on_response(now)
            now += 10.0
        assert len(ctrl.history) == ctrl.increases + ctrl.decreases
        assert all(event.server_id == "s" for event in ctrl.history)

