"""Hedged-request (speculative-retry) policies.

Cassandra-style percentile speculative retry, generalized: after a read
is dispatched, wait until the configured quantile of recently observed
read latencies has elapsed, then re-issue the read to a *different*
replica; whichever copy responds first completes the operation.  §5 of the
paper ("Comparison against request reissues") evaluates exactly this
mechanism against C3's proactive rate control.

The registered ``"hedge"`` policy is selection-agnostic — it composes with
any registered strategy in both the flat simulator
(``SimulationConfig.hedging``) and the cluster model
(``ClusterConfig.hedging``).  The policy object itself is pure estimation
state (a sliding latency window and a threshold query); *when* to arm the
hedge timer and *where* to send the extra copy is the host's job, so the
dispatch machinery stays in one place per substrate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .registry import register_control

__all__ = ["HedgeParams", "QuantileHedging"]


@dataclass(frozen=True, slots=True)
class HedgeParams:
    """Hedging knobs.

    Attributes
    ----------
    quantile:
        Latency quantile that arms the hedge timer, in ``(0, 1)``.  0.95
        hedges the slowest 5 % of reads; 0.99 reproduces the paper's
        Cassandra ``speculative_retry: 99percentile`` configuration.
    max_extra:
        Maximum number of extra copies issued per operation.  Each copy
        re-arms the timer, so ``max_extra=2`` fires a second hedge another
        threshold later if neither earlier copy has answered.
    min_samples:
        Latency samples required before hedging activates (cold start sends
        no extra copies).
    history:
        Sliding-window size used to estimate the quantile.
    """

    quantile: float = 0.95
    max_extra: int = 1
    min_samples: int = 50
    history: int = 1000


def _check_hedge(quantile: float, max_extra: int, min_samples: int, history: int) -> None:
    """The hedge knobs' constraints, checked at spec parse and construction alike."""
    if not 0.0 < quantile < 1.0:
        raise ValueError("hedge quantile must be in (0, 1)")
    if max_extra < 1:
        raise ValueError("hedge max_extra must be >= 1")
    if not 1 <= min_samples <= history:
        raise ValueError("invalid sample window configuration: need 1 <= min_samples <= history")


@register_control(
    "hedge",
    kind="hedge",
    aliases=("SPECULATIVE", "SPECULATIVE_RETRY"),
    params=HedgeParams,
    description="Quantile-triggered hedged requests (Cassandra speculative retry)",
    param_aliases={"q": "quantile"},
    validate=lambda params: _check_hedge(**params),
)
class QuantileHedging:
    """Quantile-triggered hedging state: a latency window plus a threshold.

    ``record()`` folds completed-read latencies into a sliding window;
    ``threshold_ms()`` reports how long to wait before issuing an extra
    copy, or ``None`` while warming up.  Cassandra's ``speculative_retry:
    <p>percentile`` is this policy with ``quantile = p / 100`` and
    ``max_extra = 1``.
    """

    def __init__(
        self,
        quantile: float = 0.95,
        max_extra: int = 1,
        min_samples: int = 50,
        history: int = 1000,
    ) -> None:
        _check_hedge(quantile, max_extra, min_samples, history)
        self.quantile = float(quantile)
        self.max_extra = int(max_extra)
        self.min_samples = int(min_samples)
        self._window: deque[float] = deque(maxlen=int(history))

    def record(self, latency_ms: float) -> None:
        """Fold one observed read latency into the estimate."""
        self._window.append(float(latency_ms))

    def threshold_ms(self) -> float | None:
        """Current hedge delay, or ``None`` while warming up."""
        if len(self._window) < self.min_samples:
            return None
        return float(np.percentile(np.asarray(self._window), self.quantile * 100.0))
