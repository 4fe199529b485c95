"""Record-size models.

§5 evaluates two datasets: fixed 1 KB records (10 × 100-byte fields, YCSB's
default) and a "skewed record sizes" dataset where field sizes are Zipfian
distributed favouring shorter values, with a maximum record length of 2 KB
across ten fields.
"""

from __future__ import annotations

import numpy as np

from ..core import samplers

__all__ = ["FixedRecordSize", "ZipfSkewedRecordSize"]


class FixedRecordSize:
    """Every record has the same size (the paper's 1 KB baseline)."""

    def __init__(self, size_bytes: int = 1024) -> None:
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        self.size_bytes = int(size_bytes)

    def sample(self) -> int:
        """Size of the next record, in bytes."""
        return self.size_bytes

    def mean(self) -> float:
        """Expected record size in bytes."""
        return float(self.size_bytes)


class ZipfSkewedRecordSize:
    """Zipf-distributed field sizes favouring shorter values (§5).

    Each record has ``num_fields`` fields whose sizes follow a discretised
    Zipf distribution over ``[min_field_bytes, max_field_bytes]``; the total
    record size is capped at ``max_record_bytes`` (2 KB in the paper).
    """

    def __init__(
        self,
        num_fields: int = 10,
        min_field_bytes: int = 1,
        max_field_bytes: int = 200,
        max_record_bytes: int = 2048,
        theta: float = 0.99,
        rng: np.random.Generator | None = None,
    ) -> None:
        if num_fields < 1:
            raise ValueError("num_fields must be >= 1")
        if min_field_bytes < 1 or max_field_bytes < min_field_bytes:
            raise ValueError("field size bounds are invalid")
        if max_record_bytes < num_fields * min_field_bytes:
            raise ValueError("max_record_bytes too small for the field bounds")
        if not 0.0 < theta < 1.0:
            raise ValueError("theta must be in (0, 1)")
        self.num_fields = int(num_fields)
        self.min_field_bytes = int(min_field_bytes)
        self.max_field_bytes = int(max_field_bytes)
        self.max_record_bytes = int(max_record_bytes)
        self.theta = float(theta)
        self.rng = rng or np.random.default_rng()

        sizes = np.arange(self.min_field_bytes, self.max_field_bytes + 1, dtype=float)
        weights = 1.0 / (np.arange(1, sizes.size + 1, dtype=float) ** self.theta)
        self._sizes = sizes.astype(int)
        self._probs = weights / weights.sum()
        # rng.choice(self._sizes, p=self._probs) draws this index, bit for bit.
        self._size_index = samplers.weighted(self.rng, self._probs)

    def sample_field(self) -> int:
        """Size of one field, in bytes (shorter values are more likely)."""
        return self.min_field_bytes + self._size_index()

    def sample(self) -> int:
        """Size of the next record, in bytes (sum of fields, capped)."""
        total = sum(self.sample_field() for _ in range(self.num_fields))
        return int(min(total, self.max_record_bytes))

    def mean(self) -> float:
        """Expected record size in bytes (ignoring the rarely-hit cap)."""
        mean_field = float(np.dot(self._sizes, self._probs))
        return min(mean_field * self.num_fields, float(self.max_record_bytes))
