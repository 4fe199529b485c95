"""The canonical, parameterized control specification.

:class:`ControlSpec` is the :class:`~repro.strategies.specbase.Spec` of the
control registry: ``"phi:threshold=8"`` normalizes to ``"phi"`` (8 is the
default) and ``"hedge:quantile=0.99,max_extra=2"`` round-trips exactly.
``SimulationConfig.failure_detector`` / ``.hedging`` and
``ClusterConfig.hedging`` store the canonical string; the *default*
control specs (``"binary"`` detector, no hedging) are additionally omitted
from runner payloads so that pre-controls cache keys and golden digests
stay byte-identical.
"""

from __future__ import annotations

from typing import Any

from ..strategies.specbase import Spec
from .registry import CONTROLS

__all__ = ["ControlSpec"]


class ControlSpec(Spec):
    """A :class:`~repro.strategies.specbase.Spec` of the control registry."""

    registry = CONTROLS

    @property
    def kind(self) -> str:
        """The control family (``"detector"``, ``"hedge"``, ``"rate"``)."""
        return self.entry.kind

    def build(self, **context: Any) -> Any:
        """Instantiate this spec's control with the given runtime context.

        The context keys a control may consume are factory-specific (e.g.
        detectors take ``down_tracker`` and ``servers``); the default
        factory ignores the context entirely.
        """
        return self.entry.factory(self.params_dict, context)
