"""Per-node storage engine model.

A Cassandra node serves a read either from memory (memtable / row cache) or
from one or more SSTables on disk; it serves writes by appending to the
commit log and memtable (cheap).  Background compactions temporarily inflate
read costs and I/O wait.  This model captures the pieces replica selection
cares about: the service-time distribution, its dependence on concurrency and
record size, and the iowait signal that gets gossiped.
"""

from __future__ import annotations

import numpy as np

from ..core import samplers
from ..core.ewma import EWMA
from ..simulator.request import record_size_factor
from .disk import DiskModel, DiskProfile, HDD_PROFILE

__all__ = ["StorageEngine"]


class StorageEngine:
    """Storage model for one node.

    Parameters
    ----------
    profile:
        Disk profile (HDD/SSD).
    cache_hit_probability:
        Probability a read is served from memory.  The paper's dataset (500 M
        × 1 KB records) is much larger than RAM, so the default is low.
    rng:
        Random generator.
    deterministic:
        Propagated to the disk model (exact means, for unit tests).
    """

    def __init__(
        self,
        profile: DiskProfile = HDD_PROFILE,
        cache_hit_probability: float = 0.1,
        rng: np.random.Generator | None = None,
        deterministic: bool = False,
    ) -> None:
        if not 0.0 <= cache_hit_probability <= 1.0:
            raise ValueError("cache_hit_probability must be in [0, 1]")
        self.rng = rng or np.random.default_rng()
        self._cache_coin = samplers.uniform(self.rng)
        self.disk = DiskModel(profile, rng=self.rng, deterministic=deterministic)
        self.cache_hit_probability = float(cache_hit_probability)
        self.compacting = False
        self.compactions = 0
        self.reads_served = 0
        self.writes_served = 0
        # Smoothed read activity, used as the "organic" component of iowait.
        self._activity = EWMA(alpha=0.2, initial=0.0)

    # ------------------------------------------------------------- compaction
    def begin_compaction(self) -> None:
        """Mark the start of a compaction (raises iowait, slows reads)."""
        self.compacting = True
        self.compactions += 1

    def end_compaction(self) -> None:
        """Mark the end of a compaction."""
        self.compacting = False

    # ------------------------------------------------------------ service time
    def read_service_time(self, concurrent_reads: int, record_size: int = 1024) -> float:
        """Sample the service time of one read, in milliseconds."""
        self.reads_served += 1
        self._activity.update(min(1.0, concurrent_reads / 16.0))
        cache_hit = self._cache_coin() < self.cache_hit_probability
        return self.disk.read_time(
            concurrent_reads=max(0, concurrent_reads),
            compacting=self.compacting,
            cache_hit=cache_hit,
            size_factor=record_size_factor(record_size),
        )

    def write_service_time(self, record_size: int = 1024) -> float:
        """Sample the service time of one write, in milliseconds."""
        self.writes_served += 1
        return self.disk.write_time(
            compacting=self.compacting, size_factor=record_size_factor(record_size)
        )

    # ----------------------------------------------------------------- signals
    @property
    def iowait(self) -> float:
        """Current iowait fraction in [0, 1] — the signal gossip publishes.

        Compaction dominates (as it does on real nodes); otherwise the value
        tracks recent read concurrency on the disk.
        """
        if self.compacting:
            return min(1.0, 0.6 + 0.4 * self._activity.value)
        return min(0.5, 0.5 * self._activity.value)

    def stats(self) -> dict:
        """Counters for reporting."""
        return {
            "reads_served": self.reads_served,
            "writes_served": self.writes_served,
            "compactions": self.compactions,
            "compacting": self.compacting,
            "iowait": self.iowait,
            "disk_profile": self.disk.profile.name,
        }
