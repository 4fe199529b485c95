"""Replica-selection strategies: C3 and every baseline used in the paper.

Strategies live in a plugin registry (:mod:`repro.strategies.registry`):
each selector module registers itself under a canonical name with a typed,
frozen param dataclass whose defaults are the paper's values.  A
:class:`StrategySpec` — parsed from ``"c3"``, ``"c3:cubic_c=4e-4,b=3"``, or
``{"name": "c3", "params": {...}}`` — addresses one (strategy, parameters)
point, which makes strategy *parameters* a first-class sweep axis alongside
the strategy name itself.

:data:`STRATEGY_NAMES`, the accepted aliases, and the CLI's strategy listing
are all derived from the registry; :func:`make_selector` remains as the
convenience factory (now spec-aware: ``make_selector("c3:beta=0.5")``).
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Mapping

import numpy as np

from ..core.config import C3Config
from .base import ReplicaSelector, SelectorDecision, StatefulSelector

# Selector modules self-register on import; the import order below fixes the
# canonical registration order reported by strategy_names() / STRATEGY_NAMES.
from .c3 import C3Params, c3_config_from_params
from .oracle import OracleParams, OracleSelector
from .least_outstanding import LeastOutstandingParams, LeastOutstandingSelector
from .round_robin import RoundRobinParams, RoundRobinSelector
from .random_choice import RandomParams, RandomSelector
from .power_of_two import PowerOfTwoParams, PowerOfTwoSelector
from .dynamic_snitch import DynamicSnitchParams, DynamicSnitchSelector

from .registry import (
    BuildContext,
    StrategyInfo,
    get_strategy,
    register_strategy,
    resolve_strategy,
    strategy_names,
)
from .spec import StrategySpec

__all__ = [
    "BuildContext",
    "C3Params",
    "DynamicSnitchParams",
    "DynamicSnitchSelector",
    "LeastOutstandingParams",
    "LeastOutstandingSelector",
    "OracleParams",
    "OracleSelector",
    "PowerOfTwoParams",
    "PowerOfTwoSelector",
    "RandomParams",
    "RandomSelector",
    "ReplicaSelector",
    "RoundRobinParams",
    "RoundRobinSelector",
    "SelectorDecision",
    "StatefulSelector",
    "StrategyInfo",
    "StrategySpec",
    "STRATEGY_NAMES",
    "c3_config_from_params",
    "get_strategy",
    "make_selector",
    "register_strategy",
    "resolve_strategy",
    "strategy_names",
]

#: Canonical strategy names, derived from the registry (registration order).
STRATEGY_NAMES = strategy_names()


def make_selector(
    name: "str | Mapping[str, Any] | StrategySpec",
    *,
    config: C3Config | None = None,
    rng: np.random.Generator | None = None,
    server_state_fn: Callable[[Hashable], tuple[float, float]] | None = None,
    iowait_fn: Callable[[Hashable], float] | None = None,
    **params: Any,
) -> ReplicaSelector:
    """Build a selector from a strategy name or parameterized spec.

    Parameters
    ----------
    name:
        A registered strategy name or alias (case-insensitive), a spec
        string (``"c3:cubic_c=4e-4"``), a mapping (``{"name": ...,
        "params": {...}}``), or a :class:`StrategySpec`.
    config:
        Base C3 configuration for the strategies that carry rate
        controllers (C3 and rate-limited RR).
    rng:
        Random generator for strategies that randomise tie-breaks.
    server_state_fn:
        Ground-truth callback required by the ``ORA`` strategy.
    iowait_fn:
        Gossip callback used by the ``DS`` strategy.
    params:
        Strategy parameters, validated against the registered param
        dataclass — unknown names are rejected with a closest-match
        suggestion.  Keyword params override same-named spec params.
    """
    spec = StrategySpec.parse(name)
    if params:
        spec = StrategySpec.of(spec.name, {**spec.params_dict, **params})
    return spec.build(
        rng=rng,
        server_state_fn=server_state_fn,
        iowait_fn=iowait_fn,
        c3_config=config,
    )
