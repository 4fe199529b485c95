"""A model of Cassandra's Dynamic Snitching (DS) — the paper's main baseline.

Dynamic Snitching (§2.3) ranks peers using:

* a *history* of observed read latencies per peer, reduced with a median
  over exponentially-decayed samples;
* gossiped one-second ``iowait`` averages, weighted far more heavily than
  the latency scores (the paper notes "up to two orders of magnitude more
  influence");
* scores recomputed only at fixed, discrete intervals (100 ms by default),
  with the latency histories reset every ``reset_interval_ms`` (10 minutes
  in Cassandra).

The interval-based recomputation is precisely what makes DS prone to the
synchronised load oscillations of Figure 2: between recomputations every
coordinator keeps sending to the same "best" peer.  This implementation
reproduces those dynamics; the gossiped iowait signal is provided by the
cluster substrate through an ``iowait_fn`` callback.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from ..core.feedback import ServerFeedback
from .base import StatefulSelector
from .registry import IowaitFn, register_strategy

__all__ = ["DynamicSnitchParams", "DynamicSnitchSelector", "IowaitFn"]


@dataclass(frozen=True, slots=True)
class DynamicSnitchParams:
    """Dynamic Snitching parameters (defaults = Cassandra's, per §2.3)."""

    update_interval_ms: float = 100.0
    reset_interval_ms: float = 600_000.0
    iowait_weight: float = 100.0
    history_size: int = 100
    badness_threshold: float = 0.0
    decay_alpha: float = 0.75


def _check_ds(update_interval_ms: float, reset_interval_ms: float, badness_threshold: float) -> None:
    """The DS knobs' constraints, checked at spec parse and construction alike."""
    if update_interval_ms <= 0:
        raise ValueError("update_interval_ms must be positive")
    if reset_interval_ms <= 0:
        raise ValueError("reset_interval_ms must be positive")
    if not 0.0 <= badness_threshold < 1.0:
        raise ValueError("badness_threshold must be in [0, 1)")


@register_strategy(
    "DS",
    aliases=("DYNAMIC_SNITCH",),
    params=DynamicSnitchParams,
    description="Cassandra Dynamic Snitching: interval-scored latency history + gossiped iowait",
    context_args=("rng", "iowait_fn"),
    validate=lambda params: _check_ds(
        params["update_interval_ms"], params["reset_interval_ms"], params["badness_threshold"]
    ),
)
class DynamicSnitchSelector(StatefulSelector):
    """Interval-scored, latency-history + iowait based replica selection.

    Parameters
    ----------
    update_interval_ms:
        How often scores are recomputed (Cassandra: 100 ms).
    reset_interval_ms:
        How often latency histories are cleared (Cassandra: 10 minutes).
    iowait_fn:
        Optional callback to the gossip subsystem; returns the latest
        gossiped iowait for a peer (0 when unknown).
    iowait_weight:
        Multiplier applied to the iowait signal when composing the score.
        Cassandra weights I/O load much more heavily than latency; the
        default of 100 reflects the "two orders of magnitude" the paper
        measured.
    history_size:
        Maximum number of latency samples retained per peer.
    badness_threshold:
        Cassandra's ``dynamic_snitch_badness_threshold``: if the best dynamic
        score is within this fraction of the statically-preferred replica's
        score, the static (first listed) replica is used.  0 disables it.
    """

    name = "DS"

    def __init__(
        self,
        update_interval_ms: float = 100.0,
        reset_interval_ms: float = 600_000.0,
        iowait_fn: IowaitFn | None = None,
        iowait_weight: float = 100.0,
        history_size: int = 100,
        badness_threshold: float = 0.0,
        decay_alpha: float = 0.75,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        _check_ds(update_interval_ms, reset_interval_ms, badness_threshold)
        self.update_interval_ms = float(update_interval_ms)
        self.reset_interval_ms = float(reset_interval_ms)
        self.iowait_fn = iowait_fn
        self.iowait_weight = float(iowait_weight)
        self.history_size = int(history_size)
        self.badness_threshold = float(badness_threshold)
        self.decay_alpha = float(decay_alpha)
        self.rng = rng or np.random.default_rng()

        # The factory captures the size, not ``self``: a selector must not
        # be a reference cycle on its own.
        history_size = self.history_size
        self._latency_history: dict[Hashable, deque[float]] = defaultdict(
            lambda: deque(maxlen=history_size)
        )
        self._scores: dict[Hashable, float] = {}
        self._last_update = -float("inf")
        self._last_reset = 0.0
        self.score_recomputations = 0
        self.history_resets = 0

    # ---------------------------------------------------------------- scoring
    def _latency_score(self, server_id: Hashable) -> float:
        """Median over exponentially-decayed latency samples for a peer."""
        history = self._latency_history.get(server_id)
        if not history:
            return 0.0
        samples = np.asarray(history, dtype=float)
        # Exponentially weight newer samples more heavily, then take the
        # median of the weighted sequence (mirroring Cassandra's
        # ExponentiallyDecayingSample + median reduction).
        weights = self.decay_alpha ** np.arange(len(samples))[::-1]
        weighted = samples * weights / weights.mean()
        return float(np.median(weighted))

    def _iowait(self, server_id: Hashable) -> float:
        if self.iowait_fn is None:
            return 0.0
        return float(self.iowait_fn(server_id))

    def _recompute_scores(self, now: float) -> None:
        if now - self._last_reset >= self.reset_interval_ms:
            self._latency_history.clear()
            self._last_reset = now
            self.history_resets += 1
        peers = set(self._latency_history) | set(self._scores)
        self._scores = {
            sid: self._latency_score(sid) + self.iowait_weight * self._iowait(sid)
            for sid in peers
        }
        self._last_update = now
        self.score_recomputations += 1

    def _maybe_recompute(self, now: float) -> None:
        if now - self._last_update >= self.update_interval_ms:
            self._recompute_scores(now)

    def score(self, server_id: Hashable, now: float | None = None) -> float:
        """The current (possibly stale) DS score for a peer (lower = better)."""
        if now is not None:
            self._maybe_recompute(now)
        return self._scores.get(server_id, 0.0)

    # -------------------------------------------------------------- selection
    def choose(self, replica_group: Sequence[Hashable], now: float) -> Hashable:
        self._maybe_recompute(now)
        group = tuple(replica_group)
        scores = [self._scores.get(sid, 0.0) for sid in group]
        best_idx = int(np.argmin(scores))
        if self.badness_threshold > 0.0:
            static_first = 0
            static_score = scores[static_first]
            if static_score > 0 and scores[best_idx] >= static_score * (1.0 - self.badness_threshold):
                return group[static_first]
        best_score = scores[best_idx]
        candidates = [sid for sid, s in zip(group, scores) if s == best_score]
        if len(candidates) == 1:
            return candidates[0]
        return candidates[int(self.rng.integers(len(candidates)))]

    # ---------------------------------------------------------------- updates
    def record_response(
        self,
        server_id: Hashable,
        feedback: ServerFeedback | None,
        response_time: float,
        now: float,
    ) -> None:
        self._latency_history[server_id].append(response_time)

    def stats(self) -> dict:
        stats = super().stats()
        stats.update(
            {
                "score_recomputations": self.score_recomputations,
                "history_resets": self.history_resets,
                "tracked_peers": len(self._latency_history),
            }
        )
        return stats
