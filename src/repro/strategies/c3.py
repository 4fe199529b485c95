"""The C3 strategy: its spec params, registered onto the core scheduler.

C3 is one object, :class:`~repro.core.scheduler.C3Scheduler` — already a
:class:`~repro.strategies.base.ReplicaSelector`.  This module only declares
its sweepable params and registers it under ``C3``, so that
``StrategySpec.parse("c3").build(...)`` returns a ``C3Scheduler`` over the
deployment's base config with the spec's params applied.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..core.config import C3Config
from ..core.scheduler import C3Scheduler
from .paramspec import config_params
from .registry import BuildContext, register_strategy

__all__ = ["C3Params", "c3_config_from_params"]


C3Params = config_params(
    "C3Params",
    C3Config,
    derived=("concurrency_weight",),
    module=__name__,
    doc="""Sweepable C3 parameters (defaults = the paper's §4 values).

    The fields are :class:`~repro.core.config.C3Config`'s, with its types
    and defaults; a spec param simply overrides the matching config field.
    ``None`` means "derived": the concurrency weight defaults to the number
    of clients in the deployment, ``gamma`` to the saddle-duration
    heuristic, and the hysteresis to twice the rate window.  Paper-notation
    aliases are registered alongside: ``b`` (score exponent), ``w``
    (concurrency weight), ``cubic_c`` (the cubic curve's scaling factor γ)
    and ``delta_ms`` (the rate window δ).
    """,
)


def c3_config_from_params(
    params: Mapping[str, Any], base: C3Config | None = None
) -> C3Config:
    """Apply explicit spec params over a base :class:`C3Config`.

    The base carries the deployment-derived defaults (``with_clients``);
    params present in the spec override it field-by-field.  Specs are the
    one way to set C3 params, and the base differs from ``C3Config()`` only
    in fields whose param default is ``None`` ("derived"), so the params
    that parsing drops for equalling their default lose nothing.
    """
    config = base or C3Config()
    overrides = {key: value for key, value in params.items() if value is not None}
    return config.copy(**overrides) if overrides else config


def _validate_c3_params(params: Mapping[str, Any]) -> None:
    # C3Config.__post_init__ owns the value constraints; applying the params
    # to a default config surfaces them at spec-parse time.
    c3_config_from_params(params)


def _build_c3(params: Mapping[str, Any], ctx: BuildContext) -> C3Scheduler:
    return C3Scheduler(c3_config_from_params(params, ctx.c3_config))


register_strategy(
    "C3",
    params=C3Params,
    description="Adaptive replica selection: cubic scoring + distributed rate control (the paper's system)",
    param_aliases={
        "b": "score_exponent",
        "w": "concurrency_weight",
        "cubic_c": "gamma",
        "delta_ms": "rate_delta_ms",
    },
    factory=_build_c3,
    validate=_validate_c3_params,
)(C3Scheduler)
