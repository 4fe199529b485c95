"""Zipfian key popularity — the YCSB access pattern used throughout §5.

YCSB's "zipfian" request distribution draws keys from a Zipf(ρ) law over a
fixed key space (ρ = 0.99 in the paper).  :class:`ZipfianGenerator`
implements the classic Gray et al. bounded Zipfian generator so that draws
are O(1) and the popularity ranking is scrambled across the key space the
same way YCSB does it (``scrambled`` mode).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..core import samplers

__all__ = ["ZipfianGenerator", "UniformKeyGenerator"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _fnv1a_64(value: int) -> int:
    """64-bit FNV-1a hash of an integer (YCSB's key scrambler)."""
    data = value.to_bytes(8, "little", signed=False)
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


class ZipfianGenerator:
    """Bounded Zipfian integer generator over ``[0, num_keys)``.

    Parameters
    ----------
    num_keys:
        Size of the key space.
    theta:
        The Zipfian constant ρ (0.99 in YCSB and in the paper).  Values must
        be in (0, 1); 0.99 produces the heavy skew where ~85 % of accesses
        hit ~10 % of keys.
    scrambled:
        When True (default) the popularity ranking is scattered over the key
        space with an FNV hash, as YCSB does, so that popular keys do not
        cluster on adjacent token ranges.
    rng:
        Random generator.
    """

    def __init__(
        self,
        num_keys: int,
        theta: float = 0.99,
        scrambled: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        if num_keys < 1:
            raise ValueError("num_keys must be >= 1")
        if not 0.0 < theta < 1.0:
            raise ValueError("theta must be in (0, 1)")
        self.num_keys = int(num_keys)
        self.theta = float(theta)
        self.scrambled = scrambled
        self.rng = rng or np.random.default_rng()
        self._uniform = samplers.uniform(self.rng)

        self._zetan = self._zeta(self.num_keys, self.theta)
        self._zeta2 = self._zeta(2, self.theta)
        self._alpha = 1.0 / (1.0 - self.theta)
        # For n <= 2 every draw returns rank 0 or 1 before reading eta
        # (u * zetan < zetan <= 1 + 0.5**theta), and at n = 2 its formula
        # divides by zero; YCSB computes a NaN there and never reads it.
        self._eta = (
            (1.0 - (2.0 / self.num_keys) ** (1.0 - self.theta)) / (1.0 - self._zeta2 / self._zetan)
            if self.num_keys > 2
            else 0.0
        )

    @staticmethod
    @lru_cache(maxsize=32)
    def _zeta(n: int, theta: float) -> float:
        # Cached because every generator of a cluster asks for the same
        # (n, theta); the sum keeps its order, so the value is bit-identical.
        return float(sum(1.0 / (i**theta) for i in range(1, n + 1)))

    def next_rank(self) -> int:
        """Draw a popularity rank in ``[0, num_keys)`` (0 = most popular)."""
        u = self._uniform()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5**self.theta:
            return 1
        return int(self.num_keys * (self._eta * u - self._eta + 1.0) ** self._alpha)

    def next_key(self) -> int:
        """Draw a key, optionally scrambling the rank across the key space."""
        rank = min(self.next_rank(), self.num_keys - 1)
        if not self.scrambled:
            return rank
        return _fnv1a_64(rank) % self.num_keys

    def sample(self, count: int) -> np.ndarray:
        """Draw ``count`` keys."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return np.array([self.next_key() for _ in range(count)], dtype=np.int64)

    def popularity(self, rank: int) -> float:
        """Theoretical access probability of the key with the given rank."""
        if not 0 <= rank < self.num_keys:
            raise ValueError("rank out of range")
        return (1.0 / ((rank + 1) ** self.theta)) / self._zetan


class UniformKeyGenerator:
    """Uniform key popularity (YCSB's "uniform" request distribution)."""

    def __init__(self, num_keys: int, rng: np.random.Generator | None = None) -> None:
        if num_keys < 1:
            raise ValueError("num_keys must be >= 1")
        self.num_keys = int(num_keys)
        self.rng = rng or np.random.default_rng()
        self._below = samplers.below(self.rng, self.num_keys)

    def next_key(self) -> int:
        """Draw a key uniformly."""
        return self._below()

    def sample(self, count: int) -> np.ndarray:
        """Draw ``count`` keys."""
        return self.rng.integers(0, self.num_keys, size=count, dtype=np.int64)
