"""Power-of-two-choices replica selection (Mitzenmacher, discussed in §8).

Two replicas are sampled uniformly at random from the group and the one with
the smaller estimated load (locally outstanding requests plus the last
queue-size feedback) receives the request.  With a replication factor of 3
the distinction from full ranking is small — which is the paper's point —
but the strategy is included for completeness and for ablation studies.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from ..core.ewma import EWMA, check_alpha
from ..core.feedback import ServerFeedback
from .base import StatefulSelector
from .registry import register_strategy

__all__ = ["PowerOfTwoParams", "PowerOfTwoSelector"]


@dataclass(frozen=True, slots=True)
class PowerOfTwoParams:
    """P2C parameters."""

    #: EWMA smoothing weight for the queue-size feedback estimate.
    alpha: float = 0.9


@register_strategy(
    "P2C",
    aliases=("POWER_OF_TWO",),
    params=PowerOfTwoParams,
    description="Power-of-two-choices: sample two replicas, pick the less loaded",
    context_args=("rng",),
    validate=lambda params: check_alpha(params["alpha"]),
)
class PowerOfTwoSelector(StatefulSelector):
    """Sample two replicas, pick the less loaded one."""

    name = "P2C"

    def __init__(self, alpha: float = 0.9, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        check_alpha(alpha)
        self.rng = rng or np.random.default_rng()
        self.alpha = alpha
        self._outstanding: dict[Hashable, int] = defaultdict(int)
        self._queue_feedback: dict[Hashable, EWMA] = {}

    def _queue_ewma(self, server_id: Hashable) -> EWMA:
        ewma = self._queue_feedback.get(server_id)
        if ewma is None:
            ewma = EWMA(self.alpha)
            self._queue_feedback[server_id] = ewma
        return ewma

    def load_estimate(self, server_id: Hashable) -> float:
        """Outstanding requests plus smoothed queue feedback."""
        return self._outstanding[server_id] + self._queue_ewma(server_id).value

    def choose(self, replica_group: Sequence[Hashable], now: float) -> Hashable:
        group = tuple(replica_group)
        if len(group) == 1:
            return group[0]
        idx = self.rng.choice(len(group), size=2, replace=False)
        a, b = group[int(idx[0])], group[int(idx[1])]
        return a if self.load_estimate(a) <= self.load_estimate(b) else b

    def record_send(self, server_id: Hashable, now: float) -> None:
        self._outstanding[server_id] += 1

    def on_duplicate_send(self, server_id: Hashable, now: float) -> None:
        self._outstanding[server_id] += 1

    def record_response(
        self,
        server_id: Hashable,
        feedback: ServerFeedback | None,
        response_time: float,
        now: float,
    ) -> None:
        if self._outstanding[server_id] > 0:
            self._outstanding[server_id] -= 1
        if feedback is not None:
            self._queue_ewma(server_id).update(feedback.queue_size)

    def on_timeout(self, server_id: Hashable, now: float) -> None:
        if self._outstanding[server_id] > 0:
            self._outstanding[server_id] -= 1
