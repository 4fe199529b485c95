"""Failure detectors: how clients decide a replica is dead.

Two registered detectors:

* ``"binary"`` — the legacy ground-truth detector: a replica is down exactly
  while its :class:`~repro.simulator.server.SimServer` is crashed (scenario
  fault injection increments a shared
  :class:`~repro.simulator.server.DownServerTracker`).  This reproduces the
  pre-registry liveness checks *byte-for-byte*: the same reads in the same
  order, no RNG draws, no scheduled events — golden digests pin it.
* ``"phi"`` — a phi-accrual failure detector (Hayashibara et al., the design
  Cassandra ships): every response arriving at any client counts as a
  heartbeat from its server; the detector keeps a sliding window of
  inter-arrival times per server and converts the silence since the last
  heartbeat into a suspicion level

      phi(t) = t / (mean_interval · ln 10)

  (the exponential-distribution form: ``-log10 P(no heartbeat for t)``).
  A replica is suspected — and filtered out of candidate sets — once phi
  crosses the configured ``threshold``.  Unlike the binary detector, phi
  needs no oracle: it suspects crashed *and* stalled replicas alike, after
  a delay governed by the threshold, and recovers on the next heartbeat.

Recovery path: a fully-suspected replica receives no selected traffic, so
its phi would never reset from selection alone.  Read-repair duplicates are
the probe channel — they fan out to every non-crashed replica regardless of
suspicion (connection-refused knowledge is immediate; suspicion is not),
so a recovered or merely-slow replica keeps producing heartbeats and
rejoins the candidate set once phi falls below the threshold.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Hashable, Mapping, Protocol

from .registry import register_control

__all__ = [
    "BinaryDetectorParams",
    "BinaryFailureDetector",
    "FailureDetector",
    "PhiDetectorParams",
    "PhiAccrualFailureDetector",
]

_LN10 = math.log(10.0)


class FailureDetector(Protocol):
    """The liveness interface clients consult around replica selection."""

    def suspicious(self) -> bool:
        """Cheap guard: could *any* server currently be considered down?

        When False, clients skip per-candidate liveness filtering entirely
        (the legacy fast path when no server is crashed).
        """
        ...

    def is_alive(self, server_id: Hashable, now: float) -> bool:
        """Whether ``server_id`` should be routed to at time ``now``."""
        ...

    def heartbeat(self, server_id: Hashable, now: float) -> None:
        """Record a sign of life (a response arrival) from ``server_id``."""
        ...


# ---------------------------------------------------------------------------
# Binary (ground truth) — the legacy behavior, pinned by golden digests.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BinaryDetectorParams:
    """The binary detector has no knobs: it reads crash state directly."""


def _build_binary(params: Mapping[str, Any], context: Mapping[str, Any]) -> "BinaryFailureDetector":
    return BinaryFailureDetector(
        down_tracker=context.get("down_tracker"),
        servers=context.get("servers"),
    )


@register_control(
    "binary",
    kind="detector",
    aliases=("GROUND_TRUTH",),
    params=BinaryDetectorParams,
    description="Ground-truth crash knowledge (legacy down/up liveness checks)",
    factory=_build_binary,
)
class BinaryFailureDetector:
    """Ground-truth liveness: a server is down exactly while it is crashed.

    ``suspicious()`` and ``is_alive()`` replicate the legacy checks —
    ``down_tracker.count`` then ``servers[sid].is_up`` — as pure reads with
    no random draws and no events, so runs with this detector stay
    byte-identical to the pre-registry simulator.
    """

    __slots__ = ("down_tracker", "servers")

    def __init__(self, down_tracker: Any = None, servers: Mapping[Hashable, Any] | None = None) -> None:
        self.down_tracker = down_tracker
        self.servers = servers or {}

    def suspicious(self) -> bool:
        return self.down_tracker is not None and bool(self.down_tracker.count)

    def is_alive(self, server_id: Hashable, now: float) -> bool:
        return bool(self.servers[server_id].is_up)

    def heartbeat(self, server_id: Hashable, now: float) -> None:
        return None


# ---------------------------------------------------------------------------
# Phi accrual.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PhiDetectorParams:
    """Phi-accrual knobs (defaults follow Cassandra's failure detector).

    Attributes
    ----------
    threshold:
        Suspicion level above which a server is considered down (Cassandra's
        ``phi_convict_threshold`` default is 8: suspect after a silence of
        ``8 · ln 10 ≈ 18.4`` mean inter-arrival intervals).
    window:
        Sliding-window size of inter-arrival samples kept per server.
    min_intervals:
        Heartbeat intervals required before a server can be suspected at
        all; with fewer samples the estimate is too noisy to convict, so
        the server counts as alive (phi = 0).
    floor_ms:
        Lower bound on the mean inter-arrival estimate, so a burst of
        same-instant heartbeats cannot convict everything a microsecond
        later.
    """

    threshold: float = 8.0
    window: int = 100
    min_intervals: int = 3
    floor_ms: float = 0.05


def _check_phi(threshold: float, window: int, min_intervals: int, floor_ms: float) -> None:
    """The phi knobs' constraints, checked at spec parse and construction alike."""
    if threshold <= 0:
        raise ValueError("phi threshold must be positive")
    if window < 1:
        raise ValueError("phi window must be >= 1")
    if min_intervals < 1:
        raise ValueError("phi min_intervals must be >= 1")
    if floor_ms <= 0:
        raise ValueError("phi floor_ms must be positive")


@register_control(
    "phi",
    kind="detector",
    aliases=("PHI_ACCRUAL",),
    params=PhiDetectorParams,
    description="Phi-accrual suspicion over response-arrival heartbeats (Cassandra-style)",
    validate=lambda params: _check_phi(**params),
)
class PhiAccrualFailureDetector:
    """Phi-accrual failure detection over response-arrival heartbeats.

    One shared instance serves every client in a simulation (heartbeats are
    cluster-wide knowledge, like gossip).  Per server the detector keeps the
    last heartbeat time and a sliding window of inter-arrival intervals;
    ``phi = silence / (mean_interval · ln 10)`` grows monotonically while a
    server stays silent and resets to zero on the next heartbeat.
    """

    __slots__ = ("threshold", "window", "min_intervals", "floor_ms", "_last", "_intervals")

    def __init__(
        self,
        threshold: float = 8.0,
        window: int = 100,
        min_intervals: int = 3,
        floor_ms: float = 0.05,
    ) -> None:
        _check_phi(threshold, window, min_intervals, floor_ms)
        self.threshold = float(threshold)
        self.window = int(window)
        self.min_intervals = int(min_intervals)
        self.floor_ms = float(floor_ms)
        self._last: dict[Hashable, float] = {}
        self._intervals: dict[Hashable, deque[float]] = {}

    # ----------------------------------------------------------- heartbeats
    def heartbeat(self, server_id: Hashable, now: float) -> None:
        last = self._last.get(server_id)
        if last is not None and now > last:
            intervals = self._intervals.get(server_id)
            if intervals is None:
                intervals = deque(maxlen=self.window)
                self._intervals[server_id] = intervals
            intervals.append(now - last)
        if last is None or now > last:
            self._last[server_id] = now

    # ------------------------------------------------------------ suspicion
    def phi(self, server_id: Hashable, now: float) -> float:
        """Current suspicion level for ``server_id`` (0 = just heard from)."""
        last = self._last.get(server_id)
        intervals = self._intervals.get(server_id)
        if last is None or not intervals or len(intervals) < self.min_intervals:
            return 0.0
        mean = max(sum(intervals) / len(intervals), self.floor_ms)
        silence = max(now - last, 0.0)
        return silence / (mean * _LN10)

    def suspicious(self) -> bool:
        # Filtering only matters once at least one server has enough history
        # to be convictable at all.
        return any(len(iv) >= self.min_intervals for iv in self._intervals.values())

    def is_alive(self, server_id: Hashable, now: float) -> bool:
        return self.phi(server_id, now) < self.threshold

    def suspected(self, now: float) -> tuple[Hashable, ...]:
        """Servers currently over the threshold (diagnostics)."""
        return tuple(
            sid for sid in self._intervals if not self.is_alive(sid, now)
        )
