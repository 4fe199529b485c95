"""Golden digests for C3, Dynamic Snitching and the oracle on the cluster substrate.

The cluster's coordinator shares its request lifecycle (submit, backlog
retry, read repair and hedging) with the flat and live clients, so these
pins hold that lifecycle on ``cluster/`` the way the flat goldens and the
kernel-equivalence matrix hold it on the simulator.  The hedged cells turn
on hedged reads and read repair together and assert that hedges fire.  The
maintenance cells run frequent GC pauses and compactions and assert that
both happen: at 400 ms the default intervals start neither, so only these
cells pin the node's stall, its compaction slowdown and, through ORA, the
oracle's view of its service time.  The slowdown cell inflates one node's
service times 3x for a window, as Figure 13 does.  A change to any digest
here altered the cluster's behaviour.
"""

from __future__ import annotations

import pytest

from repro.cluster import CassandraCluster, ClusterConfig

CLUSTER = dict(num_nodes=5, num_generators=8, duration_ms=400.0, num_keys=500, seed=3)

MAINTENANCE = dict(gc_interarrival_ms=100.0, compaction_interarrival_ms=150.0)

CELLS = {
    "C3": dict(strategy="C3"),
    "DS": dict(strategy="DS"),
    "C3-hedged": dict(
        strategy="C3", hedging="hedge:quantile=0.5,max_extra=2", read_repair_probability=0.5
    ),
    "C3-maintenance": dict(strategy="C3", **MAINTENANCE),
    "DS-maintenance": dict(strategy="DS", **MAINTENANCE),
    "ORA-maintenance": dict(strategy="ORA", **MAINTENANCE),
    "C3-slowdown": dict(strategy="C3"),
}

#: cell -> (node, factor, start_ms, end_ms) of a scripted slowdown.
SLOWDOWNS = {"C3-slowdown": (1, 3.0, 100.0, 300.0)}

DIGESTS = {
    ("C3", "read_heavy"): "1eaa6e2c5498d832f12f671fc536c39116f7e30f579adb5eabe2eb1bd4423b69",
    ("C3", "update_heavy"): "0a8f943dbd613c4e7bdeddc18054740f8396f272d357e833e67f8a741b93918a",
    ("DS", "read_heavy"): "5d9231b8a2f4ede7f2479ef8d21507eccf7494af132f958fa0764d4558bf04ff",
    ("DS", "update_heavy"): "ed9b161d33c2a395ba69f20d0354adfb2431378ac04bbee6188bad685657f1cb",
    ("C3-hedged", "read_heavy"): "99623e4801fde8ce9fdc66aeeccd05ecd1e91f6017914e715ca524a04fe3c349",
    ("C3-hedged", "update_heavy"): "6336ceef4edc29303726d41bd45fbf905f3c022cf51dc478e33bafe33c189369",
    ("C3-maintenance", "read_heavy"): "1f5fd5d9625067c87f773115f41bacf5f7148d85faf692cea647d8791008041a",
    ("C3-maintenance", "update_heavy"): "fe70197838e92b57b9ad1ba4d7655b0bf183287ef15789c634cd331f00c9ed9c",
    ("DS-maintenance", "read_heavy"): "ee69820c8025f0c59c656cdb63d99be45832d7002502a885e059b2685d33a916",
    ("DS-maintenance", "update_heavy"): "19613dd02fc78538cf6a1c044efd5f1a6d09a27e4aa9b3c7b529dab1313777c2",
    ("ORA-maintenance", "read_heavy"): "4abdf32cef6dcf0f2d2b2c568a42be16828b060245c9468bf37d7a7ea1dc7727",
    ("C3-slowdown", "read_heavy"): "8c066336fcadeca417f6dde65c9402c52f9d8703db7bca4a099582388180bfcd",
}


@pytest.mark.parametrize("cell,mix", sorted(DIGESTS), ids=str)
def test_cluster_digest_pinned(cell, mix):
    cluster = CassandraCluster(ClusterConfig(workload_mix=mix, **CLUSTER, **CELLS[cell]))
    if cell in SLOWDOWNS:
        node_id, factor, start_ms, end_ms = SLOWDOWNS[cell]
        node = cluster.nodes[node_id]
        cluster.loop.schedule_at(start_ms, node.set_service_time_multiplier, factor)
        cluster.loop.schedule_at(end_ms, node.set_service_time_multiplier, 1.0)
    result = cluster.run()
    speculations = sum(c.speculations_fired for c in cluster.coordinators.values())
    if "hedging" in CELLS[cell]:
        assert speculations > 0
    if "gc_interarrival_ms" in CELLS[cell]:
        assert result.extra["gc_pauses"] > 0 and result.extra["compactions"] > 0
    assert result.digest() == DIGESTS[(cell, mix)]
