"""Disk service-time models for the cluster substrate.

The paper evaluates two storage back-ends on EC2: a RAID0 array of four
spinning-head ephemeral disks (``m1.xlarge``) and a RAID0 pair of SSDs
(``m3.xlarge``).  Spinning disks suffer from random seeks whose cost grows
with the number of concurrent readers (which is why the read-only workload is
slower than the read-heavy one in Figure 6), while SSDs are roughly an order
of magnitude faster and far less sensitive to concurrency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import samplers

__all__ = ["DiskProfile", "HDD_PROFILE", "SSD_PROFILE", "DiskModel"]


@dataclass(frozen=True, slots=True)
class DiskProfile:
    """Parameters of a storage back-end.

    Attributes
    ----------
    name:
        Profile name ("hdd", "ssd", …).
    read_ms:
        Mean service time of a random read that misses the cache.
    write_ms:
        Mean service time of a write (commit log + memtable append).
    seek_penalty_ms:
        Extra mean latency added per concurrent in-flight read beyond the
        first (head contention on spinning media).
    compaction_read_factor:
        Multiplier applied to read service times while a compaction is
        running on the node.
    cache_hit_ms:
        Service time of a read served from the row cache / memtable.
    """

    name: str
    read_ms: float
    write_ms: float
    seek_penalty_ms: float
    compaction_read_factor: float
    cache_hit_ms: float

    def __post_init__(self) -> None:
        if min(self.read_ms, self.write_ms, self.cache_hit_ms) <= 0:
            raise ValueError("service times must be positive")
        if self.seek_penalty_ms < 0:
            raise ValueError("seek_penalty_ms must be non-negative")
        if self.compaction_read_factor < 1.0:
            raise ValueError("compaction_read_factor must be >= 1")


#: Spinning-disk RAID0 (m1.xlarge ephemeral storage).
HDD_PROFILE = DiskProfile(
    name="hdd",
    read_ms=4.0,
    write_ms=0.5,
    seek_penalty_ms=0.6,
    compaction_read_factor=2.5,
    cache_hit_ms=0.3,
)

#: SSD RAID0 (m3.xlarge instance storage).
SSD_PROFILE = DiskProfile(
    name="ssd",
    read_ms=0.8,
    write_ms=0.3,
    seek_penalty_ms=0.05,
    compaction_read_factor=1.5,
    cache_hit_ms=0.15,
)


class DiskModel:
    """Samples I/O service times for one node's storage.

    Parameters
    ----------
    profile:
        The :class:`DiskProfile` to draw from.
    rng:
        Random generator.
    deterministic:
        When True, samples equal their means (unit tests).
    """

    def __init__(
        self,
        profile: DiskProfile = HDD_PROFILE,
        rng: np.random.Generator | None = None,
        deterministic: bool = False,
    ) -> None:
        self.profile = profile
        self.rng = rng or np.random.default_rng()
        self._exp = samplers.standard_exponential(self.rng)
        self.deterministic = deterministic
        self.reads_sampled = 0
        self.writes_sampled = 0

    def _draw(self, mean_ms: float) -> float:
        if self.deterministic:
            return mean_ms
        return mean_ms * self._exp()

    def read_time(
        self,
        concurrent_reads: int = 0,
        compacting: bool = False,
        cache_hit: bool = False,
        size_factor: float = 1.0,
    ) -> float:
        """Sample the service time of one read, in milliseconds.

        Parameters
        ----------
        concurrent_reads:
            Number of *other* reads currently in flight on this disk; each
            adds ``seek_penalty_ms`` of expected head-contention latency on
            spinning media.
        compacting:
            Whether a compaction is running (multiplies the disk component).
        cache_hit:
            Whether the read was served from memory (memtable / row cache).
        size_factor:
            Record-size multiplier (1.0 for the 1 KB baseline).
        """
        if concurrent_reads < 0:
            raise ValueError("concurrent_reads must be non-negative")
        if size_factor <= 0:
            raise ValueError("size_factor must be positive")
        self.reads_sampled += 1
        if cache_hit:
            return self._draw(self.profile.cache_hit_ms * size_factor)
        mean = self.profile.read_ms + self.profile.seek_penalty_ms * concurrent_reads
        if compacting:
            mean *= self.profile.compaction_read_factor
        return self._draw(mean * size_factor)

    def write_time(self, compacting: bool = False, size_factor: float = 1.0) -> float:
        """Sample the service time of one write, in milliseconds."""
        if size_factor <= 0:
            raise ValueError("size_factor must be positive")
        self.writes_sampled += 1
        mean = self.profile.write_ms * size_factor
        if compacting:
            mean *= 1.5
        return self._draw(mean)
