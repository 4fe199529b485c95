"""Golden digests for C3 and Dynamic Snitching on the cluster substrate.

The cluster's coordinator shares its request lifecycle (submit, backlog
retry, read repair and hedging) with the flat and live clients, so these
pins hold that lifecycle on ``cluster/`` the way the flat goldens and the
kernel-equivalence matrix hold it on the simulator.  The hedged cells turn
on hedged reads and read repair together and assert that hedges fire.  A
change to any digest here altered the cluster's behaviour.
"""

from __future__ import annotations

import pytest

from repro.cluster import CassandraCluster, ClusterConfig

CLUSTER = dict(num_nodes=5, num_generators=8, duration_ms=400.0, num_keys=500, seed=3)

CELLS = {
    "C3": dict(strategy="C3"),
    "DS": dict(strategy="DS"),
    "C3-hedged": dict(
        strategy="C3", hedging="hedge:quantile=0.5,max_extra=2", read_repair_probability=0.5
    ),
}

DIGESTS = {
    ("C3", "read_heavy"): "1eaa6e2c5498d832f12f671fc536c39116f7e30f579adb5eabe2eb1bd4423b69",
    ("C3", "update_heavy"): "0a8f943dbd613c4e7bdeddc18054740f8396f272d357e833e67f8a741b93918a",
    ("DS", "read_heavy"): "5d9231b8a2f4ede7f2479ef8d21507eccf7494af132f958fa0764d4558bf04ff",
    ("DS", "update_heavy"): "ed9b161d33c2a395ba69f20d0354adfb2431378ac04bbee6188bad685657f1cb",
    ("C3-hedged", "read_heavy"): "99623e4801fde8ce9fdc66aeeccd05ecd1e91f6017914e715ca524a04fe3c349",
    ("C3-hedged", "update_heavy"): "6336ceef4edc29303726d41bd45fbf905f3c022cf51dc478e33bafe33c189369",
}


@pytest.mark.parametrize("cell,mix", sorted(DIGESTS), ids=str)
def test_cluster_digest_pinned(cell, mix):
    cluster = CassandraCluster(ClusterConfig(workload_mix=mix, **CLUSTER, **CELLS[cell]))
    result = cluster.run()
    speculations = sum(c.speculations_fired for c in cluster.coordinators.values())
    if "hedging" in CELLS[cell]:
        assert speculations > 0
    assert result.digest() == DIGESTS[(cell, mix)]
