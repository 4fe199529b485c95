"""Consistent-hashing token ring with replication (Cassandra data placement).

Cassandra servers organise themselves into a one-hop distributed hash table:
each node owns one token (the paper assigns tokens so that nodes own equal
segments of the keyspace) and a key is stored on the node owning the first
token ≥ hash(key), plus the next ``RF - 1`` distinct nodes clockwise around
the ring.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Hashable, Sequence

__all__ = ["TokenRing"]

_RING_SIZE = 2**64


def _hash_key(key) -> int:
    """64-bit position of a key on the ring (stable across runs)."""
    data = repr(key).encode("utf-8")
    return int.from_bytes(hashlib.md5(data).digest()[:8], "big") % _RING_SIZE


class TokenRing:
    """Equal-ownership token ring with ``replication_factor`` replicas per key.

    Parameters
    ----------
    nodes:
        The node identifiers participating in the ring, in ring order.
    replication_factor:
        Number of distinct replicas per key (3 throughout the paper).
    """

    def __init__(self, nodes: Sequence[Hashable], replication_factor: int = 3) -> None:
        node_list = list(nodes)
        if not node_list:
            raise ValueError("the ring needs at least one node")
        if len(set(node_list)) != len(node_list):
            raise ValueError("node identifiers must be unique")
        if not 1 <= replication_factor <= len(node_list):
            raise ValueError("replication_factor must be in [1, number of nodes]")
        self.nodes = node_list
        self.replication_factor = int(replication_factor)
        # Tokens evenly spaced → every node owns an equal keyspace segment,
        # matching the paper's token assignment.
        n = len(node_list)
        spacing = _RING_SIZE // n
        self._tokens = [i * spacing for i in range(n)]
        # Token i belongs to node i, so the replica group of token range i is
        # nodes i .. i+RF-1 clockwise: built once, looked up per key.  The
        # extra last entry is the wraparound — positions past the last token
        # belong to the first range.
        groups = [tuple(node_list[(i + o) % n] for o in range(self.replication_factor)) for i in range(n)]
        self._groups = groups + groups[:1]

    # ------------------------------------------------------------------ lookup
    def primary_for(self, key) -> Hashable:
        """The node owning the token range that ``key`` hashes into."""
        return self._groups[bisect.bisect_left(self._tokens, _hash_key(key))][0]

    def replicas_for(self, key) -> tuple[Hashable, ...]:
        """The replica group (RF distinct nodes) responsible for ``key``."""
        return self._groups[bisect.bisect_left(self._tokens, _hash_key(key))]

    def replica_groups(self) -> list[tuple[Hashable, ...]]:
        """All distinct replica groups (one per token range)."""
        return self._groups[:-1]

    def ownership_fraction(self, node: Hashable) -> float:
        """Fraction of the keyspace a node is the primary for."""
        if node not in self.nodes:
            raise KeyError(f"{node!r} is not in the ring")
        return 1.0 / len(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node: Hashable) -> bool:
        return node in self.nodes
