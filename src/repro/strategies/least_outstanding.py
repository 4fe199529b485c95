"""Least-outstanding-requests (LOR) replica selection.

The strategy used by Nginx / Amazon ELB style load balancers and one of the
paper's principal baselines (§2.2, §6): each client sends the request to the
replica to which it currently has the fewest outstanding requests.  Ties are
broken randomly so multiple LOR clients do not deterministically pile onto
the same server.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from ..core.feedback import ServerFeedback
from .base import StatefulSelector
from .registry import register_strategy

__all__ = ["LeastOutstandingParams", "LeastOutstandingSelector"]


@dataclass(frozen=True, slots=True)
class LeastOutstandingParams:
    """LOR has no tunable parameters — ties break uniformly at random."""


@register_strategy(
    "LOR",
    aliases=("LEAST_OUTSTANDING",),
    params=LeastOutstandingParams,
    description="Fewest locally-outstanding requests (Nginx/ELB-style least-connections)",
    context_args=("rng",),
)
class LeastOutstandingSelector(StatefulSelector):
    """Pick the replica with the fewest locally-outstanding requests."""

    name = "LOR"

    def __init__(self, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        self.rng = rng or np.random.default_rng()
        #: Outstanding requests by server id (the batched kernel reads and
        #: writes it in place).
        self._outstanding: defaultdict[Hashable, int] = defaultdict(int)

    def outstanding(self, server_id: Hashable) -> int:
        """Outstanding requests this client has at ``server_id``."""
        return self._outstanding[server_id]

    def choose(self, replica_group: Sequence[Hashable], now: float) -> Hashable:
        lowest = min(self._outstanding[sid] for sid in replica_group)
        candidates = [sid for sid in replica_group if self._outstanding[sid] == lowest]
        if len(candidates) == 1:
            return candidates[0]
        return candidates[int(self.rng.integers(len(candidates)))]

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

    def on_timeout(self, server_id: Hashable, now: float) -> None:
        if self._outstanding[server_id] > 0:
            self._outstanding[server_id] -= 1

    def stats(self) -> dict:
        stats = super().stats()
        stats["outstanding_total"] = sum(self._outstanding.values())
        return stats
