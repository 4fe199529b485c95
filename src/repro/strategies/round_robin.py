"""Rate-limited round-robin (RR) replica selection.

The §6 baseline that isolates the contribution of C3's replica *ranking*:
:class:`RoundRobinSelector` subclasses
:class:`~repro.core.scheduler.C3Scheduler` — the same per-server CUBIC rate
controllers, backlog, drain, retry hint and cancel — and swaps its scorer
for one that rotates each replica group instead of ranking it by the cubic
score.  The rotation is the policy; ``C3Scheduler`` is the one enforcement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Mapping

from ..core.config import C3Config
from ..core.scheduler import C3Scheduler
from ..core.scoring import ReplicaScorer
from .c3 import c3_config_from_params
from .registry import BuildContext, register_strategy

__all__ = ["RoundRobinParams", "RoundRobinSelector"]


@dataclass(frozen=True, slots=True)
class RoundRobinParams:
    """RR parameters: the rate-control ablation switch plus its CUBIC knobs.

    ``None`` for a rate knob means "use the deployment's base C3 config"
    (the same controllers C3 runs with, per §6).
    """

    rate_limited: bool = True
    initial_rate: float | None = None
    rate_delta_ms: float | None = None
    beta: float | None = None
    smax: float | None = None


def _rr_config(params: Mapping[str, Any], base: C3Config | None = None) -> C3Config:
    return c3_config_from_params({k: v for k, v in params.items() if k != "rate_limited"}, base)


def _validate_rr_params(params: Mapping[str, Any]) -> None:
    _rr_config(params)


def _build_round_robin(params: Mapping[str, Any], ctx: BuildContext) -> "RoundRobinSelector":
    return RoundRobinSelector(_rr_config(params, ctx.c3_config), bool(params.get("rate_limited", True)))


class _RotatingOrder(ReplicaScorer):
    """Ranks each replica group by rotating a per-group cursor.  The
    scheduler still accounts sends in the inherited slots; ``rank`` ignores them."""

    def __init__(self, config: C3Config) -> None:
        super().__init__(config)
        self._cursor: dict[frozenset, int] = {}

    def rank(self, replica_group: Iterable[Hashable]) -> list[Hashable]:
        group = tuple(replica_group)
        size = len(group)
        if not size:
            raise ValueError("replica_group must not be empty")
        for server_id in group:
            self._slot(server_id)
        key = frozenset(group)
        start = self._cursor.get(key, 0) % size
        self._cursor[key] = start + 1
        return [group[(start + i) % size] for i in range(size)]


@register_strategy(
    "RR",
    aliases=("ROUND_ROBIN",),
    params=RoundRobinParams,
    description="Round-robin ordering with C3's per-server rate limiting and backpressure",
    factory=_build_round_robin,
    validate=_validate_rr_params,
)
class RoundRobinSelector(C3Scheduler):
    """Round-robin ordering with per-server rate limiting and backpressure.

    ``config`` supplies the rate-control fields.  ``rate_limited=False``
    degrades the strategy to plain round-robin with no backpressure (its
    ``rate_control_enabled`` is off), a baseline for ablations.
    """

    name = "RR"

    def __init__(self, config: C3Config | None = None, rate_limited: bool = True) -> None:
        super().__init__((config or C3Config()).copy(rate_control_enabled=rate_limited))
        self.rate_limited = rate_limited
        self.scorer = _RotatingOrder(self.config)
