"""The canonical, parameterized strategy specification.

:class:`StrategySpec` is the :class:`~repro.strategies.specbase.Spec` of the
strategy registry — ``"c3"``, ``"C3:score_exponent=3"`` and
``{"name": "c3"}`` all normalize to ``"C3"`` — plus the one thing that is
strategy-specific: building a selector from the runtime
:class:`~repro.strategies.registry.BuildContext`.  Specs are the one way to
set C3 parameters: the context's ``c3_config`` is only the deployment base
(``C3Config().with_clients(n)``) that a spec's params override.  The
canonical string is what
:class:`~repro.simulator.simulation.SimulationConfig` stores, hashes into
sweep cache keys, and prints in reports — bare strategy names stay
byte-identical to the pre-registry era.
"""

from __future__ import annotations

import numpy as np

from ..core.config import C3Config
from .base import ReplicaSelector
from .registry import STRATEGIES, BuildContext, IowaitFn, ServerStateFn
from .specbase import Spec

__all__ = ["StrategySpec"]


class StrategySpec(Spec):
    """A :class:`~repro.strategies.specbase.Spec` of the strategy registry."""

    registry = STRATEGIES

    def build(
        self,
        *,
        rng: np.random.Generator | None = None,
        server_state_fn: ServerStateFn | None = None,
        iowait_fn: IowaitFn | None = None,
        c3_config: C3Config | None = None,
    ) -> ReplicaSelector:
        """Instantiate this spec's selector with the given runtime context."""
        ctx = BuildContext(rng, server_state_fn, iowait_fn, c3_config)
        entry = self.entry
        for requirement in entry.requires:
            if getattr(ctx, requirement) is None:
                raise ValueError(f"the {entry.name} strategy requires {requirement}")
        return entry.factory(self.params_dict, ctx)
