"""Exponentially weighted moving averages used by the C3 control loops.

The paper (§3.1) smooths the per-response feedback signals (queue size,
service time) as well as the client-observed response times with EWMAs:
:class:`EWMA` is the classic fixed-weight one,
new = alpha * sample + (1-alpha) * old.
"""

from __future__ import annotations

import math

__all__ = ["EWMA", "check_alpha"]


def check_alpha(alpha: float) -> None:
    """Reject a smoothing weight outside ``(0, 1]``."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")


class EWMA:
    """A fixed-weight exponentially weighted moving average.

    Parameters
    ----------
    alpha:
        Smoothing weight applied to each new sample; must lie in ``(0, 1]``.
        ``alpha = 1`` degenerates to "latest sample wins".
    initial:
        Optional initial value.  When ``None`` the first observed sample
        seeds the average directly (no bias towards zero).
    """

    __slots__ = ("alpha", "_value", "_count")

    def __init__(self, alpha: float = 0.9, initial: float | None = None) -> None:
        check_alpha(alpha)
        self.alpha = float(alpha)
        self._value: float | None = None if initial is None else float(initial)
        self._count = 0

    def update(self, sample: float) -> float:
        """Fold ``sample`` into the average and return the new value."""
        sample = float(sample)
        if math.isnan(sample):
            raise ValueError("cannot update EWMA with NaN")
        if self._value is None:
            self._value = sample
        else:
            self._value = self.alpha * sample + (1.0 - self.alpha) * self._value
        self._count += 1
        return self._value

    @property
    def value(self) -> float:
        """Current smoothed value (0.0 when no samples have been observed)."""
        return 0.0 if self._value is None else self._value

    @property
    def initialized(self) -> bool:
        """True once at least one sample (or an explicit initial) is present."""
        return self._value is not None

    @property
    def count(self) -> int:
        """Number of samples folded in via :meth:`update`."""
        return self._count

    def reset(self, value: float | None = None) -> None:
        """Discard all state, optionally re-seeding with ``value``."""
        self._value = None if value is None else float(value)
        self._count = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EWMA(alpha={self.alpha}, value={self.value:.6g}, count={self._count})"
