"""Configuration for the C3 replica-selection mechanism.

The defaults follow §4 of the paper:

* multiplicative decrease ``beta = 0.2``;
* ``gamma`` chosen so the saddle region of the cubic is ~100 ms long;
* rate window ``delta = 20`` ms;
* hysteresis = 2 × rate window;
* rate-increase step cap ``smax = 10``;
* cubic scoring exponent ``b = 3``;
* concurrency-compensation weight = number of clients in the system.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .cubic import gamma_for_saddle

__all__ = ["C3Config"]


@dataclass(slots=True)
class C3Config:
    """Tunable parameters of the C3 algorithm.

    Attributes
    ----------
    score_exponent:
        Exponent ``b`` of the queue-size estimate in the scoring function
        (``b = 3`` gives the cubic selection of the paper, ``b = 1`` degrades
        to the linear scoring Figure 4 argues against).
    concurrency_weight:
        Weight ``w`` multiplying the client's outstanding-request count in the
        queue-size estimate ``q̂_s = 1 + os_s · w + q̄_s``.  The paper sets this
        to the number of clients in the system.
    ewma_alpha:
        Smoothing weight used for the response-time, queue-size and
        service-time EWMAs maintained by the client.
    rate_delta_ms:
        Length δ of the rate-limiter window, in milliseconds.
    beta:
        Multiplicative-decrease factor applied to the sending rate when the
        receive rate falls behind.
    smax:
        Cap on a single rate-increase step (requests per δ window).
    saddle_duration_ms:
        Desired length of the saddle region of the cubic growth curve;
        used to derive ``gamma`` when ``gamma`` is not given explicitly.
    gamma:
        Scaling factor of the cubic growth curve.  ``None`` (default) derives
        it from ``saddle_duration_ms`` and the initial rate.
    hysteresis_ms:
        Minimum time after a rate increase before a rate decrease is allowed
        (Algorithm 2, line 3).  ``None`` defaults to ``2 * rate_delta_ms``.
    initial_rate:
        Initial per-server sending rate (requests per δ window).
    min_rate:
        Floor for the sending rate so a server is never starved of probes.
    max_rate:
        Optional ceiling for the sending rate (``None`` = unbounded).
    rate_control_enabled:
        Ablation switch: when ``False`` the scheduler only ranks replicas and
        never exerts backpressure.
    rate_excess_tolerance:
        How much the achieved send rate must exceed the receive rate (as a
        ratio) before the controller treats the server as falling behind.
    rate_min_utilisation:
        Minimum fraction of the rate limit the client must actually be using
        before a multiplicative decrease is considered; below this the limit
        is not binding, so decreasing it would only add noise.
    service_time_floor_ms:
        Numerical floor for the smoothed service time to keep scores finite.
    """

    score_exponent: float = 3.0
    concurrency_weight: float = 1.0
    ewma_alpha: float = 0.9
    rate_delta_ms: float = 20.0
    beta: float = 0.2
    smax: float = 10.0
    saddle_duration_ms: float = 100.0
    gamma: float | None = None
    hysteresis_ms: float | None = None
    initial_rate: float = 10.0
    min_rate: float = 0.1
    max_rate: float | None = None
    rate_control_enabled: bool = True
    rate_excess_tolerance: float = 1.2
    rate_min_utilisation: float = 0.4
    service_time_floor_ms: float = 1e-3

    def __post_init__(self) -> None:
        if self.score_exponent <= 0:
            raise ValueError("score_exponent must be positive")
        if self.concurrency_weight < 0:
            raise ValueError("concurrency_weight must be non-negative")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if self.rate_delta_ms <= 0:
            raise ValueError("rate_delta_ms must be positive")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must be in (0, 1)")
        if self.smax <= 0:
            raise ValueError("smax must be positive")
        if self.initial_rate <= 0:
            raise ValueError("initial_rate must be positive")
        if self.min_rate <= 0:
            raise ValueError("min_rate must be positive")
        if self.max_rate is not None and self.max_rate < self.min_rate:
            raise ValueError("max_rate must be >= min_rate")
        if self.gamma is not None and self.gamma <= 0:
            raise ValueError("gamma must be positive when given")
        if self.hysteresis_ms is not None and self.hysteresis_ms < 0:
            raise ValueError("hysteresis_ms must be non-negative when given")
        if self.rate_excess_tolerance < 1.0:
            raise ValueError("rate_excess_tolerance must be >= 1")
        if not 0.0 <= self.rate_min_utilisation <= 1.0:
            raise ValueError("rate_min_utilisation must be in [0, 1]")

    @property
    def effective_hysteresis_ms(self) -> float:
        """Hysteresis duration, defaulting to twice the rate window."""
        if self.hysteresis_ms is not None:
            return self.hysteresis_ms
        return 2.0 * self.rate_delta_ms

    def effective_gamma(self, saturation_rate: float | None = None) -> float:
        """Gamma to use for the cubic growth curve.

        When an explicit ``gamma`` is configured it is returned unchanged,
        otherwise gamma is derived from the desired saddle duration and the
        given saturation rate (falling back to ``initial_rate``).
        """
        if self.gamma is not None:
            return self.gamma
        rate = self.initial_rate if saturation_rate is None else saturation_rate
        return gamma_for_saddle(self.saddle_duration_ms, self.beta, rate)

    def with_clients(self, n_clients: int) -> "C3Config":
        """Return a copy whose concurrency weight equals ``n_clients``.

        The paper sets the concurrency-compensation weight ``w`` to the number
        of clients in the system; this helper makes that the one-liner it
        should be.
        """
        if n_clients < 0:
            raise ValueError("n_clients must be non-negative")
        return replace(self, concurrency_weight=float(n_clients))

    def copy(self, **overrides) -> "C3Config":
        """Return a copy with ``overrides`` applied (dataclasses.replace)."""
        return replace(self, **overrides)
