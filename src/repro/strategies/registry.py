"""The strategy registry: every selector registers itself under a canonical name.

Each strategy module declares a frozen *param dataclass* (defaults = the
paper's values) and registers its selector class with
:func:`register_strategy` — :meth:`Registry.register
<repro.strategies.specbase.Registry.register>` of :data:`STRATEGIES`::

    @register_strategy(
        "P2C",
        aliases=("POWER_OF_TWO",),
        params=PowerOfTwoParams,
        description="Power-of-two-choices: sample two replicas, pick the less loaded",
        context_args=("rng",),
    )
    class PowerOfTwoSelector(StatefulSelector): ...

Registration makes the strategy addressable everywhere a strategy name is
accepted — ``SimulationConfig.strategy``, ``ClusterConfig.strategy``, sweep
grids, and the CLI — including the ``"c3:cubic_c=2e-4"`` spec syntax.
``STRATEGY_NAMES``, the factory aliases, and the CLI listing are all derived
from this registry, so they can never drift apart.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Hashable

import numpy as np

from ..core.config import C3Config
from .specbase import Registry, RegistryEntry

__all__ = [
    "STRATEGIES",
    "BuildContext",
    "StrategyInfo",
    "get_strategy",
    "register_strategy",
    "resolve_strategy",
    "strategy_names",
]

#: Callback returning ``(pending_requests, current_service_time_ms)`` for a server.
ServerStateFn = Callable[[Hashable], tuple[float, float]]
#: Callback returning a peer's most recently gossiped iowait fraction [0, 1].
IowaitFn = Callable[[Hashable], float]


@dataclass(frozen=True, slots=True)
class BuildContext:
    """Runtime dependencies the harness supplies when building a selector.

    These are deliberately separate from strategy *parameters*: parameters
    are declarative, sweepable and hashed into cache keys, while the context
    carries live objects (RNG streams, ground-truth callbacks, the base
    :class:`~repro.core.config.C3Config`) that only exist inside a run.
    """

    rng: np.random.Generator | None = None
    server_state_fn: ServerStateFn | None = None
    iowait_fn: IowaitFn | None = None
    c3_config: C3Config | None = None


STRATEGIES = Registry("strategy", kinds={"strategy": "strategy"})

StrategyInfo = RegistryEntry
register_strategy = functools.partial(STRATEGIES.register, kind="strategy")
strategy_names = STRATEGIES.names
get_strategy = STRATEGIES.get
resolve_strategy = STRATEGIES.resolve
