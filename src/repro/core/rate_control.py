"""Distributed rate control — the CUBIC-inspired adaptation loop (§3.2).

Every client keeps, per server, a windowed rate limiter (``srate`` requests
per δ ms) and adapts ``srate`` from the measured receive rate ``rrate``:

* if ``srate > rrate`` (the server is not keeping up) and the hysteresis
  period since the last increase has elapsed, remember the saturation rate
  ``R0 = srate`` and multiplicatively decrease ``srate ← srate · β``;
* if ``srate < rrate`` the client grows the rate along a cubic curve

      rate(ΔT) = γ · (ΔT − (β·R0/γ)^(1/3))³ + R0

  where ``ΔT`` is the time since the last decrease, capping each step at
  ``smax``.

The cubic shape yields three operating regions (Figure 5): steep growth at
low rates, a saddle around the last-known saturation rate, and optimistic
probing beyond it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable

from .config import C3Config
from .cubic import cubic_inflection_ms, cubic_rate
from .ewma import check_alpha

__all__ = [
    "cubic_inflection_ms",
    "cubic_rate",
    "RateLimiter",
    "ReceiveRateTracker",
    "CubicRateController",
]


class RateLimiter:
    """A windowed request limiter: at most ``rate`` sends per δ-ms window.

    The limiter mirrors the paper's description of a token-bucket style
    mechanism with a fixed window δ: the number of permits consumed in the
    current window is tracked, and the window resets once δ has elapsed.
    Fractional rates are honoured by accumulating fractional allowances
    across windows.  Permits are taken by
    :meth:`CubicRateController.try_acquire`, which rolls the window and
    consumes a permit in one pass.
    """

    __slots__ = ("delta_ms", "_rate", "_window_start", "_used", "_carry")

    def __init__(self, rate: float, delta_ms: float = 20.0) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        if delta_ms <= 0:
            raise ValueError("delta_ms must be positive")
        self.delta_ms = float(delta_ms)
        self._rate = float(rate)
        self._window_start = 0.0
        self._used = 0.0
        self._carry = 0.0

    @property
    def rate(self) -> float:
        """Current allowed sends per window."""
        return self._rate

    @rate.setter
    def rate(self, value: float) -> None:
        if value <= 0:
            raise ValueError("rate must be positive")
        self._rate = float(value)

    def _roll_window(self, now: float) -> None:
        if now < self._window_start:
            # A caller rewound the clock (tests); restart bookkeeping.
            self._window_start = now
            self._used = 0.0
            self._carry = 0.0
            return
        elapsed = now - self._window_start
        if elapsed >= self.delta_ms:
            windows = int(elapsed // self.delta_ms)
            # Unused allowance carries over up to one bucket's worth; the
            # bucket holds at least one whole permit so that fractional rates
            # (e.g. 0.1 requests per window) still admit a request once
            # enough windows have elapsed instead of starving forever.
            cap = max(self._rate, 1.0)
            leftover = max(0.0, self._carry + self._rate - self._used)
            self._carry = min(cap, leftover + self._rate * (windows - 1))
            self._window_start += windows * self.delta_ms
            self._used = 0.0

    def time_until_available(self, now: float) -> float:
        """Milliseconds until the next permit could be granted (0 if now)."""
        elapsed = now - self._window_start
        if elapsed >= self.delta_ms or elapsed < 0.0:
            self._roll_window(now)
        headroom = self._rate + self._carry - self._used
        if headroom >= 1.0:
            return 0.0
        # How many whole permits are we short of 1.0, and how many windows
        # does it take to accumulate them at the current per-window rate?
        windows_needed = max(1, int(math.ceil((1.0 - headroom) / self._rate)))
        return max(0.0, self._window_start + windows_needed * self.delta_ms - now)


class ReceiveRateTracker:
    """Tracks the responses received per δ-ms window, smoothed with an EWMA
    (two slots, folded exactly as :meth:`repro.core.ewma.EWMA.update` does)."""

    __slots__ = ("delta_ms", "alpha", "_window_start", "_count", "_value", "_seeded")

    def __init__(self, delta_ms: float = 20.0, alpha: float = 0.9) -> None:
        if delta_ms <= 0:
            raise ValueError("delta_ms must be positive")
        check_alpha(alpha)
        self.delta_ms = float(delta_ms)
        self.alpha = float(alpha)
        self._window_start = 0.0
        self._count = 0.0
        self._value = 0.0
        self._seeded = False

    def _roll(self, now: float) -> None:
        """Close every window that ended at or before ``now``.

        The live window is folded once; the empty windows after it only
        decay the value (``alpha * 0.0 + c * v`` is exactly ``c * v``).  At a
        fixed point of the decay — ``0.0``, or a subnormal ``c`` no longer
        shrinks — the rest of the gap is one advance of the window start, so
        a first contact at a wall-clock ``now = 1.7e12`` does not spin once
        per window since epoch 0.  roll(t₁); roll(t₂ ≥ t₁) equals roll(t₂).
        """
        start = self._window_start
        if now < start:
            # A caller rewound the clock (tests); restart bookkeeping.
            self._window_start = now
            self._count = 0.0
            return
        delta = self.delta_ms
        if now - start < delta:
            return
        decay = 1.0 - self.alpha
        if self._seeded:
            value = self.alpha * self._count + decay * self._value
        else:
            value = self._count
            self._seeded = True
        self._count = 0.0
        start += delta
        while now - start >= delta:
            decayed = decay * value
            if decayed == value:
                start = min(start + ((now - start) // delta) * delta, now)
            else:
                value = decayed
                start += delta
        self._value = value
        self._window_start = start

    def record_response(self, now: float) -> None:
        """Record a response arriving at time ``now``."""
        self._roll(now)
        self._count += 1.0

    def rate(self, now: float) -> float:
        """Smoothed receive rate (responses per δ window)."""
        self._roll(now)
        if not self._seeded:
            # Before a full window has elapsed, extrapolate from the partial
            # window so early comparisons are not biased to zero.
            elapsed = max(now - self._window_start, 1e-9)
            return self._count * (self.delta_ms / elapsed) if self._count else 0.0
        return self._value


@dataclass
class RateControlEvent:
    """A record of a single rate adjustment (useful for Fig. 13 style traces)."""

    time: float
    server_id: Hashable
    kind: str  # "increase" | "decrease"
    old_rate: float
    new_rate: float
    saturation_rate: float


class CubicRateController:
    """Per-server CUBIC rate adaptation (Algorithm 2, lines 3–11).

    One refinement over the pseudo-code is needed to make the loop robust for
    lightly-loaded clients: the paper's clients (YCSB coordinators at maximum
    attainable throughput) always have demand close to their ``srate`` limit,
    so comparing the *limit* against the receive rate is equivalent to asking
    whether the server keeps up with what the client sends.  A client that
    only sends the occasional request would see ``srate > rrate`` purely
    because it is not using its allowance, and would spuriously collapse its
    rate to the floor.  The controller therefore also tracks the achieved
    send rate and only treats ``srate > rrate`` as congestion when (a) the
    achieved send rate itself exceeds the receive rate (the server is
    demonstrably falling behind), with a tolerance for measurement noise, and
    (b) the client is actually using a meaningful share of its limit.  Both
    thresholds are configurable via
    :attr:`~repro.core.config.C3Config.rate_excess_tolerance` and
    :attr:`~repro.core.config.C3Config.rate_min_utilisation`.
    """

    # One slotted object per (client, server) pair: the largest state a run
    # holds, so no per-instance ``__dict__`` and no history list until the
    # first event is recorded.
    __slots__ = (
        "config",
        "server_id",
        "limiter",
        "receive",
        "sent",
        "saturation_rate",
        "last_decrease_at",
        "last_increase_at",
        "increases",
        "decreases",
        "record_history",
        "_history",
    )

    def __init__(self, config: C3Config, server_id: Hashable = None) -> None:
        self.config = config
        self.server_id = server_id
        self.limiter = RateLimiter(config.initial_rate, config.rate_delta_ms)
        self.receive = ReceiveRateTracker(config.rate_delta_ms, config.ewma_alpha)
        self.sent = ReceiveRateTracker(config.rate_delta_ms, config.ewma_alpha)
        self.saturation_rate = config.initial_rate
        self.last_decrease_at = 0.0
        self.last_increase_at = 0.0
        self.increases = 0
        self.decreases = 0
        self.record_history = False
        self._history: list[RateControlEvent] | None = None

    # ---------------------------------------------------------------- actions
    @property
    def history(self) -> list[RateControlEvent]:
        """The recorded rate adjustments (empty unless ``record_history``)."""
        return self._history if self._history is not None else []

    @property
    def srate(self) -> float:
        """Current sending-rate limit (requests per δ window)."""
        return self.limiter.rate

    # try_acquire and on_response run once per request on every executor
    # (the batched kernel calls them too): one pass over the limiter's and
    # trackers' slots, rolling a window only when its boundary was crossed.

    def try_acquire(self, now: float) -> bool:
        """Consume a send permit if the limiter allows it."""
        limiter = self.limiter
        elapsed = now - limiter._window_start
        if elapsed >= limiter.delta_ms or elapsed < 0.0:
            limiter._roll_window(now)
        if limiter._rate + limiter._carry - limiter._used >= 1.0:
            limiter._used += 1.0
            sent = self.sent
            elapsed = now - sent._window_start
            if elapsed >= sent.delta_ms or elapsed < 0.0:
                sent._roll(now)
            sent._count += 1.0
            return True
        return False

    def on_response(self, now: float) -> None:
        """Update the rate from a response arriving at ``now`` (Algorithm 2).

        Only a decrease needs the achieved send rate, so ``sent`` is rolled
        only when ``srate > rrate``; otherwise it catches up at its next roll.
        """
        receive = self.receive
        elapsed = now - receive._window_start
        if elapsed >= receive.delta_ms or elapsed < 0.0:
            receive._roll(now)
        receive._count += 1.0
        rrate = receive._value if receive._seeded else receive.rate(now)
        srate = self.limiter._rate
        if srate < rrate:
            self._increase(now, srate)
        elif srate > rrate:
            sent = self.sent
            elapsed = now - sent._window_start
            if elapsed >= sent.delta_ms or elapsed < 0.0:
                sent._roll(now)
            send_rate = sent._value if sent._seeded else sent.rate(now)
            config = self.config
            if (
                send_rate > rrate * config.rate_excess_tolerance
                and send_rate >= config.rate_min_utilisation * srate
                and (now - self.last_increase_at) > config.effective_hysteresis_ms
            ):
                self._decrease(now, srate)

    # --------------------------------------------------------------- internal
    def _decrease(self, now: float, srate: float) -> None:
        self.saturation_rate = srate
        new_rate = max(self.config.min_rate, srate * self.config.beta)
        self.limiter.rate = new_rate
        self.last_decrease_at = now
        self.decreases += 1
        if self.record_history:
            self._record(now, "decrease", srate, new_rate)

    def _increase(self, now: float, srate: float) -> None:
        elapsed = now - self.last_decrease_at
        gamma = self.config.effective_gamma(self.saturation_rate)
        target = cubic_rate(elapsed, self.saturation_rate, self.config.beta, gamma)
        new_rate = min(srate + self.config.smax, target)
        if self.config.max_rate is not None:
            new_rate = min(new_rate, self.config.max_rate)
        new_rate = max(new_rate, self.config.min_rate)
        if new_rate <= srate:
            return
        self.limiter.rate = new_rate
        self.last_increase_at = now
        self.increases += 1
        if self.record_history:
            self._record(now, "increase", srate, new_rate)

    def _record(self, now: float, kind: str, old_rate: float, new_rate: float) -> None:
        event = RateControlEvent(now, self.server_id, kind, old_rate, new_rate, self.saturation_rate)
        if self._history is None:
            self._history = [event]
        else:
            self._history.append(event)
