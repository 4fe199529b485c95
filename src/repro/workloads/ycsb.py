"""YCSB-style workload mixes.

The paper drives Cassandra with three standard YCSB mixes:

* **read-heavy**   — 95 % reads / 5 % updates (photo tagging; YCSB workload B);
* **update-heavy** — 50 % reads / 50 % updates (session store; YCSB workload A);
* **read-only**    — 100 % reads (user-profile cache; YCSB workload C).

Keys follow a Zipfian(0.99) popularity over 10 M keys; records are 1 KB by
default.  :class:`YCSBWorkload` bundles the mix, the key generator and the
record-size model into a single operation stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..core import samplers
from .records import FixedRecordSize, ZipfSkewedRecordSize
from .zipf import UniformKeyGenerator, ZipfianGenerator

__all__ = ["Operation", "WorkloadMix", "YCSBWorkload", "WORKLOAD_MIXES"]


@dataclass(frozen=True, slots=True)
class Operation:
    """One workload operation: a read or an update of a key."""

    key: int
    is_read: bool
    record_size: int


@dataclass(frozen=True, slots=True)
class WorkloadMix:
    """A named read/update mix."""

    name: str
    read_fraction: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")


#: The three mixes evaluated in §5.
WORKLOAD_MIXES: dict[str, WorkloadMix] = {
    "read_heavy": WorkloadMix("read_heavy", 0.95),
    "update_heavy": WorkloadMix("update_heavy", 0.50),
    "read_only": WorkloadMix("read_only", 1.00),
}


class YCSBWorkload:
    """An operation stream with a YCSB-like mix, key skew and record sizes.

    Parameters
    ----------
    mix:
        A :class:`WorkloadMix` or the name of one of :data:`WORKLOAD_MIXES`.
    num_keys:
        Key-space size (the paper draws from 10 million keys; experiments in
        this repository default to a much smaller space for speed — access
        *skew*, not key cardinality, is what drives replica-selection load).
    zipf_theta:
        Zipfian constant (0.99, YCSB default).
    key_distribution:
        "zipfian" (default) or "uniform".
    record_sizes:
        A record-size model; defaults to fixed 1 KB records.  Pass a
        :class:`~repro.workloads.records.ZipfSkewedRecordSize` to reproduce
        the skewed-record-size experiment.
    rng:
        Random generator.
    """

    def __init__(
        self,
        mix: WorkloadMix | str = "read_heavy",
        num_keys: int = 100_000,
        zipf_theta: float = 0.99,
        key_distribution: str = "zipfian",
        record_sizes: FixedRecordSize | ZipfSkewedRecordSize | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if isinstance(mix, str):
            if mix not in WORKLOAD_MIXES:
                raise ValueError(f"unknown mix {mix!r}; choose from {sorted(WORKLOAD_MIXES)}")
            mix = WORKLOAD_MIXES[mix]
        self.mix = mix
        self.rng = rng or np.random.default_rng()
        self._read_coin = samplers.uniform(self.rng)
        if key_distribution == "zipfian":
            self.keys = ZipfianGenerator(num_keys, theta=zipf_theta, rng=self.rng)
        elif key_distribution == "uniform":
            self.keys = UniformKeyGenerator(num_keys, rng=self.rng)
        else:
            raise ValueError("key_distribution must be 'zipfian' or 'uniform'")
        self.record_sizes = record_sizes or FixedRecordSize(1024)
        self.operations_generated = 0

    @property
    def name(self) -> str:
        """The mix name (read_heavy / update_heavy / read_only)."""
        return self.mix.name

    def next_operation(self) -> Operation:
        """Draw the next operation of the stream."""
        self.operations_generated += 1
        return Operation(
            key=self.keys.next_key(),
            is_read=self._read_coin() < self.mix.read_fraction,
            record_size=self.record_sizes.sample(),
        )

    def operations(self, count: int) -> Iterator[Operation]:
        """Yield ``count`` operations."""
        if count < 0:
            raise ValueError("count must be non-negative")
        for _ in range(count):
            yield self.next_operation()
