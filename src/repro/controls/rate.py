"""The generic CUBIC send-rate controller, registered as a control.

There is exactly one CUBIC implementation in the codebase —
:class:`~repro.core.rate_control.CubicRateController`, parameterized by the
rate-control slice of :class:`~repro.core.config.C3Config` and built on the
shared cubic-curve helpers in :mod:`repro.core.cubic`.  Registering it here
exposes that same implementation through the control-spec grammar
(``"cubic:beta=0.4,smax=20"``) so sweeps and experiments can grid over
rate-control knobs without reaching into strategy internals, and so an
equivalence test can assert that a spec-built controller and a
``C3Config``-built controller agree measurement-for-measurement.

The scheduler composes this controller with backpressure queues
(:mod:`repro.core.backpressure`); backpressure holds requests *because* the
controller's limiter denies a permit — it has no rate logic of its own.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..core.config import C3Config
from ..core.rate_control import CubicRateController
from ..strategies.paramspec import config_params
from .registry import register_control

__all__ = ["CubicRateParams", "cubic_config_from_params"]


CubicRateParams = config_params(
    "CubicRateParams",
    C3Config,
    (
        "initial_rate",
        "rate_delta_ms",
        "beta",
        "smax",
        "saddle_duration_ms",
        "gamma",
        "hysteresis_ms",
        "ewma_alpha",
        "min_rate",
        "max_rate",
        "rate_excess_tolerance",
        "rate_min_utilisation",
    ),
    module=__name__,
    doc="""The rate-control slice of :class:`~repro.core.config.C3Config`.

    Each field is the config's own (name, type and default), so a spec
    override maps one-to-one onto the config the controller is built from.
    """,
)


def cubic_config_from_params(
    params: Mapping[str, Any], base: C3Config | None = None
) -> C3Config:
    """Apply explicit rate-control overrides onto a (default) ``C3Config``."""
    config = base if base is not None else C3Config()
    return config.copy(**dict(params)) if params else config


def _validate_cubic(params: Mapping[str, Any]) -> None:
    # C3Config.__post_init__ already encodes every value constraint; building
    # a throwaway config surfaces the same ValueError at spec-parse time.
    cubic_config_from_params(params)


def _build_cubic(params: Mapping[str, Any], context: Mapping[str, Any]) -> CubicRateController:
    return CubicRateController(
        cubic_config_from_params(params, context.get("config")),
        server_id=context.get("server_id"),
    )


@register_control(
    "cubic",
    kind="rate",
    aliases=("CUBIC_RATE", "C3_RATE"),
    params=CubicRateParams,
    description="CUBIC per-server send-rate adaptation (Algorithm 2, Figure 5)",
    factory=_build_cubic,
    validate=_validate_cubic,
)
class _RegisteredCubicRateController(CubicRateController):
    """Registry anchor; instances are plain :class:`CubicRateController`."""
