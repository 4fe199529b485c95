"""Golden digests for rate-limited round-robin (RR), on both flat kernels and
the cluster substrate.

RR is C3's per-server rate control and backpressure with a rotating replica
order, so these pins cover the backlog path RR shares with C3: the
``rr:initial_rate=0.5`` cells put (nearly) every request through the backlog
and assert it.  The plain ``RR`` and ``rr:rate_limited=false`` cells pin the
ordering itself.  A change to any digest here altered RR's semantics.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterConfig, run_cluster
from repro.simulator.simulation import ReplicaSelectionSimulation, SimulationConfig

FLAT = dict(num_servers=9, num_clients=3, num_requests=1500, utilization=0.6, seed=5)

VARIANTS = {
    "alone": {},
    "crash-recovery": dict(
        scenario="crash-recovery",
        scenario_params={"first_at_ms": 20.0, "down_ms": 30.0, "stagger_ms": 25.0},
    ),
    "hedge": dict(hedging="hedge:quantile=0.5,max_extra=1"),
}

#: Rate limited at half a request per window: the backlog carries the run.
TIGHT = "rr:initial_rate=0.5"
#: The ordering alone: no permits, no backlog.
UNLIMITED = "rr:rate_limited=false"

FLAT_DIGESTS = {
    ("RR", "alone"): "e3959c579170c43a6f75c4ac36e009e520f49cdd4b38ff10b99d449960ab117d",
    ("RR", "crash-recovery"): "546c7a030ec0d6a7c05614e70282ae1a1f79dd0b6f8a30fc052a3ab4d5a3aff1",
    ("RR", "hedge"): "fde700f1d62129d38f6f6526fb53568c7fc5d12f761f3f88b590aebbf8541aac",
    (UNLIMITED, "alone"): "8611efed8b4a02a85a92cc227262d8007ad9931795c15e875c1ae20d0a7f94fe",
    (UNLIMITED, "crash-recovery"): "ee6df33689798da95459a56bf11e09ee82736562f7d1dcff43346577542224a8",
    (UNLIMITED, "hedge"): "2339edd89ca8a802b038931b5df1210ceb5dcc68dab31721d557f906048b9be4",
    (TIGHT, "alone"): "e1f10a9bf1609762b5397af6d992cb83080fe9c49fe0468ba4432f2d4e1dda14",
    (TIGHT, "crash-recovery"): "03b5af5c1b20467c2a9b4eae5ecad70bf09f7276d937b7c44b9b1c54f9e34267",
    (TIGHT, "hedge"): "809c770b00e69022f1d3098a170ed062f57929389967e7e1b8c45bb941171400",
}

CLUSTER = dict(num_nodes=5, num_generators=8, duration_ms=400.0, num_keys=500, seed=3)

CLUSTER_DIGESTS = {
    "read_heavy": "92205d70fc584d03bc06c473b292438a6f7a3d7dbc379209d1910bca278f4df5",
    "update_heavy": "2b94c4c414ad3deb4186078e5643fdf6a4128a3c20606db29f205fc5c2512f5d",
}


@pytest.mark.parametrize("kernel", ["object", "batched"])
@pytest.mark.parametrize("strategy,variant", sorted(FLAT_DIGESTS), ids=str)
def test_flat_rr_digest_pinned(strategy, variant, kernel):
    config = SimulationConfig(kernel=kernel, strategy=strategy, **FLAT, **VARIANTS[variant])
    result = ReplicaSelectionSimulation(config).run()
    assert result.completed_requests == FLAT["num_requests"]
    if strategy == TIGHT:
        assert result.backpressure_events >= FLAT["num_requests"]
    assert result.digest() == FLAT_DIGESTS[(strategy, variant)]


@pytest.mark.parametrize("mix", sorted(CLUSTER_DIGESTS))
def test_cluster_rr_digest_pinned(mix):
    result = run_cluster(ClusterConfig(strategy=TIGHT, workload_mix=mix, **CLUSTER))
    assert result.backpressure_events > 0
    assert result.digest() == CLUSTER_DIGESTS[mix]
