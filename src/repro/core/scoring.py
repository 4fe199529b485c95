"""Replica ranking — the C3 scoring function (§3.1).

Each client maintains, per server ``s``:

* ``R_s``       — EWMA of the response times it observed from ``s``;
* ``q̄_s``       — EWMA of the queue-size feedback piggy-backed by ``s``;
* ``1/μ̄_s``     — EWMA of the service-time feedback piggy-backed by ``s``;
* ``os_s``      — an instantaneous count of its outstanding requests to ``s``.

The client extrapolates a queue-size estimate that accounts for concurrency
(other clients, requests in flight):

    q̂_s = 1 + os_s · w + q̄_s

and scores the server with the cubic function

    Ψ_s = R_s − 1/μ̄_s + (q̂_s)^b / μ̄_s          (b = 3 by default)

Lower scores are better.  The ``R_s − 1/μ̄_s`` term makes the score collapse to
the plain observed response time when the queue estimate is 1 (no outstanding
requests, zero queue feedback), while the convex queue penalty dominates as
soon as queues build up.

Storage layout
--------------
The scorer keeps its per-server state in dense parallel arrays (one slot per
server, appended on first contact) instead of per-server objects.  Three
consumers read the very same slots:

* the scalar hot path: ``rank`` scores a group inline (plain Python
  arithmetic beats numpy's per-call overhead by ~9x at the paper's RF=3) and
  ``on_response`` folds the three EWMAs inline; the scheduler bumps the send
  slots directly.  ``score`` is the one-server form of the same expression;
* :meth:`ReplicaScorer.scores_array`, which folds a whole replica group into
  one vectorized numpy expression, bitwise-equal to the scalar scores;
* the batched simulator kernel, which obtains the live arrays through
  :meth:`ReplicaScorer.kernel_state` and inlines every read/write, the
  scorer's ``counters`` included — because the arrays are shared rather
  than copied, fallback paths that call scorer methods mid-run stay
  consistent with the kernel's inlined fast path, and nothing is folded
  back when the run ends.

:meth:`ReplicaScorer.stats_for` materializes a detached
:class:`ServerStats` snapshot for observability and tests; mutating the
snapshot does not write back into the scorer.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Hashable, Iterable

import numpy as np

from .config import C3Config
from .ewma import EWMA
from .feedback import ServerFeedback

__all__ = ["ServerStats", "ReplicaScorer", "cubic_score"]

def cubic_score(
    response_time: float,
    queue_estimate: float,
    service_time: float,
    exponent: float = 3.0,
) -> float:
    """Compute the C3 score for one server from already-smoothed inputs.

    Parameters
    ----------
    response_time:
        Smoothed client-observed response time ``R_s`` (milliseconds).
    queue_estimate:
        Queue-size estimate ``q̂_s`` (requests), already including the
        concurrency compensation and the ``1 +`` offset.
    service_time:
        Smoothed service time ``1/μ̄_s`` (milliseconds); must be positive.
    exponent:
        Exponent ``b`` applied to the queue estimate (3 = cubic).
    """
    if service_time <= 0:
        raise ValueError(f"service_time must be positive, got {service_time}")
    if queue_estimate < 0:
        raise ValueError(f"queue_estimate must be non-negative, got {queue_estimate}")
    mu = 1.0 / service_time
    return response_time - service_time + (queue_estimate**exponent) / mu


@dataclass
class ServerStats:
    """Per-server state a client keeps for ranking purposes.

    Returned by :meth:`ReplicaScorer.stats_for` as a *detached snapshot* of
    the scorer's dense state: reads reflect the scorer at call time, writes
    do not propagate back.
    """

    server_id: Hashable
    response_time: EWMA
    queue_size: EWMA
    service_time: EWMA
    outstanding: int = 0
    feedback_count: int = 0
    last_feedback_at: float | None = None
    last_sent_at: float | None = None

    def snapshot(self) -> dict:
        """Return a plain-dict view (handy for logging and tests)."""
        return {
            "server_id": self.server_id,
            "response_time": self.response_time.value,
            "queue_size": self.queue_size.value,
            "service_time": self.service_time.value,
            "outstanding": self.outstanding,
            "feedback_count": self.feedback_count,
        }


@dataclass
class _ScorerCounters:
    """Internal bookkeeping counters exposed for observability."""

    sends: int = 0
    responses: int = 0
    timeouts: int = 0
    resets: int = 0
    score_evaluations: int = 0

    def as_dict(self) -> dict:
        return {
            "sends": self.sends,
            "responses": self.responses,
            "timeouts": self.timeouts,
            "resets": self.resets,
            "score_evaluations": self.score_evaluations,
        }


class ReplicaScorer:
    """Maintains per-server statistics and ranks replicas by the C3 score.

    The scorer is deliberately framework-agnostic: callers report sends and
    responses with explicit timestamps, and ask for rankings of arbitrary
    replica groups.  Both the flat simulator and the Cassandra-like cluster
    substrate drive the same object.

    Parameters
    ----------
    config:
        A :class:`~repro.core.config.C3Config`; only the scoring-related
        fields are used here.
    """

    def __init__(self, config: C3Config | None = None) -> None:
        self.config = config or C3Config()
        self.counters = _ScorerCounters()
        # Dense per-server parallel arrays; slot indices are handed out by
        # ``_slot`` in first-contact order.  ``*_cnt == 0`` marks an
        # uninitialized EWMA (value slot then holds 0.0, matching
        # ``EWMA.value``'s zero default).
        self._index: dict[Hashable, int] = {}
        self._ids: list[Hashable] = []
        self._tiekey: list[str] = []
        self._rt_val: list[float] = []
        self._rt_cnt: list[int] = []
        self._qs_val: list[float] = []
        self._qs_cnt: list[int] = []
        self._st_val: list[float] = []
        self._st_cnt: list[int] = []
        self._out: list[int] = []
        self._fb_cnt: list[int] = []
        self._last_fb: list[float | None] = []
        self._last_sent: list[float | None] = []

    # ------------------------------------------------------------------ state
    def _slot(self, server_id: Hashable) -> int:
        """Slot index for ``server_id``, allocating one on first contact."""
        i = self._index.get(server_id)
        if i is None:
            i = len(self._ids)
            self._index[server_id] = i
            self._ids.append(server_id)
            self._tiekey.append(_stable_key(server_id))
            self._rt_val.append(0.0)
            self._rt_cnt.append(0)
            self._qs_val.append(0.0)
            self._qs_cnt.append(0)
            self._st_val.append(0.0)
            self._st_cnt.append(0)
            self._out.append(0)
            self._fb_cnt.append(0)
            self._last_fb.append(None)
            self._last_sent.append(None)
        return i

    def _ewma_view(self, value: float, count: int) -> EWMA:
        ewma = EWMA(self.config.ewma_alpha)
        if count:
            ewma._value = value
            ewma._count = count
        return ewma

    def stats_for(self, server_id: Hashable) -> ServerStats:
        """A detached :class:`ServerStats` snapshot (creating state if needed)."""
        i = self._slot(server_id)
        return ServerStats(
            server_id=server_id,
            response_time=self._ewma_view(self._rt_val[i], self._rt_cnt[i]),
            queue_size=self._ewma_view(self._qs_val[i], self._qs_cnt[i]),
            service_time=self._ewma_view(self._st_val[i], self._st_cnt[i]),
            outstanding=self._out[i],
            feedback_count=self._fb_cnt[i],
            last_feedback_at=self._last_fb[i],
            last_sent_at=self._last_sent[i],
        )

    @property
    def known_servers(self) -> list[Hashable]:
        """Servers for which any state exists."""
        return list(self._index)

    def outstanding(self, server_id: Hashable) -> int:
        """Number of requests this client currently has in flight to a server."""
        i = self._index.get(server_id)
        return 0 if i is None else self._out[i]

    def total_outstanding(self) -> int:
        """Total in-flight requests across all servers."""
        return sum(self._out[i] for i in self._index.values())

    def reset_server(self, server_id: Hashable) -> None:
        """Forget all state about one server (e.g. after it left the ring)."""
        i = self._index.pop(server_id, None)
        if i is not None:
            # The slot is orphaned (a later contact allocates a fresh one);
            # no array compaction, so live kernel views stay valid.
            self.counters.resets += 1

    # ---------------------------------------------------------------- updates
    def on_send(self, server_id: Hashable, now: float | None = None) -> None:
        """Record that a request was dispatched to ``server_id``."""
        i = self._slot(server_id)
        self._out[i] += 1
        self._last_sent[i] = now
        self.counters.sends += 1

    def on_response(
        self,
        server_id: Hashable,
        feedback: ServerFeedback | None,
        response_time: float,
        now: float | None = None,
    ) -> None:
        """Record a completed request.

        Parameters
        ----------
        server_id:
            The server that produced the response.
        feedback:
            The piggy-backed :class:`ServerFeedback`, or ``None`` when the
            transport lost it (the response time is still folded in).
        response_time:
            End-to-end response time observed by the client, in milliseconds.
        now:
            Current client clock, used only for bookkeeping.
        """
        if not response_time >= 0:  # negative or NaN
            raise ValueError(f"response_time must be non-negative, got {response_time}")
        i = self._index.get(server_id)
        if i is None:
            i = self._slot(server_id)
        if self._out[i] > 0:
            self._out[i] -= 1
        # Three EWMA folds (EWMA.update's, on dense slots), inline: once per
        # response on every executor.
        config = self.config
        alpha = config.ewma_alpha
        keep = 1.0 - alpha
        sample = float(response_time)
        values, counts = self._rt_val, self._rt_cnt
        values[i] = alpha * sample + keep * values[i] if counts[i] else sample
        counts[i] += 1
        if feedback is not None:
            sample = float(feedback.queue_size)
            service = float(max(feedback.service_time, config.service_time_floor_ms))
            if sample != sample or service != service:
                raise ValueError("cannot update EWMA with NaN")
            values, counts = self._qs_val, self._qs_cnt
            values[i] = alpha * sample + keep * values[i] if counts[i] else sample
            counts[i] += 1
            values, counts = self._st_val, self._st_cnt
            values[i] = alpha * service + keep * values[i] if counts[i] else service
            counts[i] += 1
            self._fb_cnt[i] += 1
            self._last_fb[i] = now
        self.counters.responses += 1

    def on_timeout(self, server_id: Hashable) -> None:
        """Record a request that never completed: its outstanding slot is freed."""
        i = self._slot(server_id)
        if self._out[i] > 0:
            self._out[i] -= 1
        self.counters.timeouts += 1

    # ---------------------------------------------------------------- scoring
    def queue_estimate(self, server_id: Hashable) -> float:
        """The concurrency-compensated queue estimate ``q̂_s``."""
        i = self._slot(server_id)
        return 1.0 + self._out[i] * self.config.concurrency_weight + self._qs_val[i]

    def score(self, server_id: Hashable) -> float:
        """The C3 score Ψ_s for one server (lower is better)."""
        i = self._slot(server_id)
        self.counters.score_evaluations += 1
        cfg = self.config
        floor = cfg.service_time_floor_ms
        if self._st_cnt[i]:
            service_time = self._st_val[i]
            if service_time < floor:
                service_time = floor
        else:
            service_time = floor
        return cubic_score(
            response_time=self._rt_val[i],
            queue_estimate=1.0 + self._out[i] * cfg.concurrency_weight + self._qs_val[i],
            service_time=service_time,
            exponent=cfg.score_exponent,
        )

    def scores_array(self, replica_group: Iterable[Hashable]) -> np.ndarray:
        """Scores for a whole replica group as one vectorized numpy expression.

        Bitwise-identical to looping :meth:`score` over the group (pinned by
        a property test).  The additive/multiplicative/division terms are
        IEEE-exact under vectorization, but the ``q̂^b`` power term is
        computed with *scalar* Python ``**``: numpy's SIMD ``pow`` is not
        bitwise-equal to libm's scalar ``pow`` on all platforms, and golden
        digests ride on these scores.
        """
        idx = [self._slot(sid) for sid in replica_group]
        self.counters.score_evaluations += len(idx)
        cfg = self.config
        floor = cfg.service_time_floor_ms
        w = cfg.concurrency_weight
        b = cfg.score_exponent
        rt_val, qs_val, st_val = self._rt_val, self._qs_val, self._st_val
        st_cnt, out = self._st_cnt, self._out
        rt = np.array([rt_val[i] for i in idx], dtype=np.float64)
        st = np.array([st_val[i] if st_cnt[i] else floor for i in idx], dtype=np.float64)
        np.maximum(st, floor, out=st)
        qpow = np.array([(1.0 + out[i] * w + qs_val[i]) ** b for i in idx], dtype=np.float64)
        result: np.ndarray = rt - st + qpow / (1.0 / st)
        return result

    def rank(self, replica_group: Iterable[Hashable]) -> list[Hashable]:
        """Replica group sorted by ascending score (best server first).

        Ties are broken by the number of outstanding requests (fewer first)
        and then by a stable ordering of the server identifiers, so that
        ranking is deterministic for reproducible simulations.
        """
        group = tuple(replica_group)
        size = len(group)
        if not size:
            raise ValueError("replica_group must not be empty")
        # cubic_score's expression inline, once per member, over the dense
        # slots.  The batched kernel transcribes the same lines; tests pin
        # both bitwise-equal to cubic_score.
        index, out, tiekey = self._index, self._out, self._tiekey
        config = self.config
        floor = config.service_time_floor_ms
        weight = config.concurrency_weight
        exponent = config.score_exponent
        rt_val, qs_val, st_val, st_cnt = self._rt_val, self._qs_val, self._st_val, self._st_cnt
        self.counters.score_evaluations += size
        decorated = []
        k = 0
        for sid in group:
            i = index.get(sid)
            if i is None:
                i = self._slot(sid)
            service = st_val[i]
            if not st_cnt[i] or service < floor:
                service = floor
            pending = out[i]
            queue = 1.0 + pending * weight + qs_val[i]
            decorated.append(
                (rt_val[i] - service + (queue**exponent) / (1.0 / service), pending, tiekey[i], k)
            )
            k += 1
        decorated.sort()
        return [group[d[3]] for d in decorated]

    # ------------------------------------------------------------------ kernel
    def kernel_state(
        self, num_servers: int
    ) -> (
        tuple[
            list[float],
            list[int],
            list[float],
            list[int],
            list[float],
            list[int],
            list[int],
            list[int],
            list[float | None],
            list[float | None],
            list[str],
        ]
        | None
    ):
        """Live dense state views for the batched kernel.

        Allocates slots for servers ``0..num_servers-1`` eagerly and returns
        the scorer's *live* parallel arrays — ``(rt_val, rt_cnt, qs_val,
        qs_cnt, st_val, st_cnt, outstanding, feedback_count, last_sent,
        last_feedback, tiekey)`` — indexable directly by integer server id.
        Because the arrays are shared rather than copied, kernel-inlined
        updates and scorer-method updates (fallback paths mid-run) observe
        each other immediately, and the kernel bumps :attr:`counters` in
        place: there is nothing to sync back.

        Returns ``None`` when the slot table is not exactly the identity
        mapping over ``0..num_servers-1`` (e.g. a reused scorer with string
        ids), in which case the kernel must fall back to scorer methods.
        """
        for sid in range(num_servers):
            self._slot(sid)
        if self._ids != list(range(num_servers)):
            return None
        return (
            self._rt_val,
            self._rt_cnt,
            self._qs_val,
            self._qs_cnt,
            self._st_val,
            self._st_cnt,
            self._out,
            self._fb_cnt,
            self._last_sent,
            self._last_fb,
            self._tiekey,
        )

    # ------------------------------------------------------------ observation
    def snapshot(self) -> dict:
        """A plain-dict dump of all per-server state (for logging/tests)."""
        return {sid: self.stats_for(sid).snapshot() for sid in self._index}


def _stable_key(server_id: Hashable) -> str:
    """A deterministic tie-break key for arbitrary hashable server ids.

    Interned, so every client's scorer shares one string per server id
    instead of holding its own copy.
    """
    return sys.intern(f"{type(server_id).__name__}:{server_id!r}")
