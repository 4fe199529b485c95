"""The ``rng="block"`` regime: a distinct, kernel-stable digest domain.

``rng="block"`` block-draws the workload trio (client, group, read/write
coin), the inter-arrival gaps, and the selector-side draws, replacing
thousands of scalar Generator calls with list indexing.  The stream
positions differ from ``rng="v1"``, so block runs form their own digest
domain — but *within* that domain the object and batched kernels must stay
digest-identical, exactly like the v1 contract pinned in
``test_kernel_equivalence.py``.  These tests pin:

* the foundation: numpy's block ``standard_exponential(n)`` is bitwise
  identical to ``n`` scalar ``exponential(mean)`` calls (after consumption-
  time scaling), which is what lets :meth:`BlockDraws.next_gap` scale by
  ``1/λ`` at consumption and keep ``set_rate`` forward-looking;
* the :class:`BlockDraws` / :class:`BlockRNG` serving discipline (refill
  exactly on exhaustion, derivations fixed);
* the other row of the draw-source table: :class:`ScalarDraws` is, variate
  for variate and in generator state, the scalar calls ``rng="v1"`` always
  made, and both kernels consume whichever source they are handed in the
  same order;
* object-vs-batched digest equality across a curated block-regime matrix
  (every selector mode + crash/phi/hedging/skew/backpressure/jitter) and a
  hypothesis property with the rng regime as an explicit axis;
* that "block" really is a *different* domain than "v1" (digests diverge),
  so nobody silently conflates their caches.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simulator.simulation import ReplicaSelectionSimulation, SimulationConfig
from repro.simulator.workload import BLOCK_SIZE, BlockDraws, BlockRNG, DemandSkew, ScalarDraws


def _digest(kernel: str, **kw) -> str:
    config = SimulationConfig(kernel=kernel, rng="block", **kw)
    return ReplicaSelectionSimulation(config).run().digest()


def assert_block_kernels_equivalent(**kw) -> None:
    assert _digest("object", **kw) == _digest("batched", **kw)


PLAIN = dict(num_servers=10, num_clients=12, num_requests=1200, seed=7)
HARD = dict(num_servers=10, num_clients=12, num_requests=2000, seed=11)

#: Block-domain equivalence matrix: every kernel-special-cased selector mode
#: plus the rare paths (crash liveness filtering, phi suspicion, hedged
#: reads, demand skew, backpressure parking, mid-run latency swap — after
#: the network-jitter scenario's delay change ENQUEUE/RESPONSE entries are
#: no longer pushed in time order, so only the heap orders them).
MATRIX = {
    "plain-lor": dict(PLAIN, strategy="LOR"),
    "plain-p2c": dict(PLAIN, strategy="P2C"),
    "plain-c3": dict(PLAIN, strategy="C3"),
    "plain-rr": dict(PLAIN, strategy="RR"),
    "plain-rand": dict(PLAIN, strategy="RAND"),
    "oracle": dict(PLAIN, strategy="ORA"),
    "crash-c3": dict(HARD, strategy="C3", scenario="crash-recovery"),
    "phi-crash-lor": dict(
        HARD, strategy="LOR", scenario="crash-recovery", failure_detector="phi"
    ),
    "hedge-c3": dict(HARD, strategy="C3", hedging="hedge:quantile=0.9"),
    "hedge-crash-lor": dict(
        HARD, strategy="LOR", scenario="crash-recovery", hedging="hedge:quantile=0.9"
    ),
    "skew-p2c": dict(
        HARD,
        strategy="P2C",
        read_fraction=0.7,
        demand_skew=DemandSkew(client_fraction=0.2, demand_fraction=0.8),
    ),
    "jitter-c3": dict(HARD, strategy="C3", scenario="network-jitter"),
    "streaming-c3": dict(HARD, strategy="C3", metrics_mode="streaming"),
    "backpressure-c3": dict(
        PLAIN, strategy="C3:initial_rate=0.1,min_rate=0.1,max_rate=0.1"
    ),
    # Copies outlive their primary: recycled request slots under hedging.
    "hedge2-rr-crash-c3": dict(
        HARD,
        strategy="C3",
        hedging="hedge:quantile=0.5,max_extra=2",
        read_repair_probability=0.5,
        scenario="crash-recovery",
    ),
}


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_block_batched_kernel_matches_object_kernel(name):
    assert_block_kernels_equivalent(**MATRIX[name])


@settings(max_examples=20, deadline=None)
@given(
    num_servers=st.integers(min_value=3, max_value=8),
    num_clients=st.integers(min_value=2, max_value=8),
    num_requests=st.integers(min_value=50, max_value=300),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    strategy=st.sampled_from(["LOR", "P2C", "C3", "RR", "RAND"]),
    rng=st.sampled_from(["v1", "block"]),
    utilization=st.floats(min_value=0.3, max_value=0.9),
    read_fraction=st.floats(min_value=0.5, max_value=1.0),
)
def test_kernels_equivalent_across_rng_regimes_property(
    num_servers, num_clients, num_requests, seed, strategy, rng, utilization, read_fraction
):
    kw = dict(
        num_servers=num_servers,
        num_clients=num_clients,
        num_requests=num_requests,
        seed=seed,
        strategy=strategy,
        rng=rng,
        utilization=utilization,
        read_fraction=read_fraction,
    )
    digests = {
        kernel: ReplicaSelectionSimulation(SimulationConfig(kernel=kernel, **kw)).run().digest()
        for kernel in ("object", "batched")
    }
    assert digests["object"] == digests["batched"]


def test_block_is_a_distinct_digest_domain():
    """Block and v1 runs of the same config are *not* digest-identical.

    If they ever were, the regimes would be interchangeable and the cache-key
    separation (``rng`` participates in payloads when non-default) would be
    dead weight; divergence here is the designed behavior, not a bug.
    """
    kw = dict(PLAIN, strategy="C3")
    v1 = ReplicaSelectionSimulation(SimulationConfig(rng="v1", **kw)).run().digest()
    block = ReplicaSelectionSimulation(SimulationConfig(rng="block", **kw)).run().digest()
    assert v1 != block


def test_invalid_rng_regime_rejected():
    with pytest.raises(ValueError, match="rng"):
        SimulationConfig(rng="v2")


class TestBlockDrawFoundation:
    def test_block_standard_exponential_bitwise_equals_scalar_exponential(self):
        """The regime's foundation: one ``standard_exponential(n)`` block,
        scaled at consumption by ``1/λ``, is bitwise identical to ``n``
        scalar ``Generator.exponential(1/λ)`` calls from the same state —
        numpy funnels both through the same ziggurat sampler and the same
        single multiply."""
        mean = 1.0 / 3.7
        scalar_rng = np.random.default_rng(42)
        block_rng = np.random.default_rng(42)
        scalar = [float(scalar_rng.exponential(mean)) for _ in range(1000)]
        block = [x * mean for x in block_rng.standard_exponential(1000).tolist()]
        assert scalar == block

    def test_block_standard_exponential_bitwise_equals_scalar_standard(self):
        scalar_rng = np.random.default_rng(9)
        block_rng = np.random.default_rng(9)
        scalar = [float(scalar_rng.standard_exponential()) for _ in range(257)]
        block = block_rng.standard_exponential(257).tolist()
        assert scalar == block[:257]


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**63 - 1),
    rate_per_ms=st.floats(min_value=1e-3, max_value=1e3),
    num_clients=st.integers(min_value=2, max_value=200),
    num_groups=st.integers(min_value=1, max_value=200),
    heavy_clients=st.one_of(st.none(), st.floats(min_value=0.05, max_value=0.95)),
)
def test_scalar_draws_are_the_scalar_calls_they_replace(
    seed, rate_per_ms, num_clients, num_groups, heavy_clients
):
    """``rng="v1"`` through the draw-source interface is the legacy stream:
    every variate bit-equal to the raw Generator call the generator and the
    arrival process used to make, and the Generator left in the same state
    (``next_gap() * (1/λ)`` against ``exponential(1/λ)`` included)."""
    probs = None if heavy_clients is None else DemandSkew(heavy_clients).client_probabilities(num_clients)
    raw = np.random.default_rng(seed)
    served = np.random.default_rng(seed)
    draws = ScalarDraws(served, num_clients, probs, num_groups)
    scale = 1.0 / rate_per_ms
    for _ in range(40):
        assert draws.next_gap() * scale == float(raw.exponential(scale))
        if probs is None:
            assert draws.next_client() == int(raw.integers(num_clients))
        else:
            assert draws.next_client() == int(raw.choice(num_clients, p=probs))
        assert draws.next_group() == int(raw.integers(num_groups))
        assert draws.next_coin() == raw.random()
    assert served.bit_generator.state == raw.bit_generator.state


class _RecordingDraws:
    """A draw source that notes which variate kind each consumer asks for."""

    def __init__(self, draws) -> None:
        self.order: list[str] = []
        for kind in ("client", "group", "coin", "gap"):
            setattr(self, f"next_{kind}", self._recorded(kind, getattr(draws, f"next_{kind}")))

    def _recorded(self, kind, draw):
        def recorded():
            self.order.append(kind)
            return draw()

        return recorded


#: Runs whose draw order the digests pin only indirectly: the C3 fast path
#: (its backpressure branch reschedules the arrival itself), a hedged run,
#: a crash (suspicious-mode submits leave the inline path) and a write mix
#: (the coin is only drawn when ``read_fraction < 1``).
DRAW_ORDER_RUNS = {
    "c3": dict(PLAIN, strategy="C3"),
    "c3-backpressure": dict(PLAIN, strategy="C3:initial_rate=0.1,min_rate=0.1,max_rate=0.1"),
    "hedged": dict(HARD, strategy="LOR", hedging="hedge:quantile=0.9"),
    "crash-recovery": dict(HARD, strategy="C3", scenario="crash-recovery"),
    "writes": dict(PLAIN, strategy="P2C", read_fraction=0.7),
}


@pytest.mark.parametrize("rng", ["v1", "block"])
@pytest.mark.parametrize("name", sorted(DRAW_ORDER_RUNS))
def test_both_kernels_consume_the_draw_source_in_the_same_order(name, rng):
    orders = {}
    for kernel in ("object", "batched"):
        sim = ReplicaSelectionSimulation(
            SimulationConfig(kernel=kernel, rng=rng, **DRAW_ORDER_RUNS[name])
        )
        recording = _RecordingDraws(sim.generator.draws)
        sim.generator.draws = recording
        sim.generator.process.next_gap = recording.next_gap
        sim.run()
        orders[kernel] = recording.order
    assert orders["object"] == orders["batched"]
    assert orders["object"].count("gap") == orders["object"].count("client") > 0
    assert ("coin" in orders["object"]) == (name == "writes")


class TestBlockDraws:
    def test_refill_exactly_on_exhaustion(self):
        """Each kind draws exactly one block up front and refills only when
        the block is spent, so stream positions are a pure function of
        consumption counts."""
        draws = BlockDraws(np.random.default_rng(1), 12, None, 10)
        for _ in range(BLOCK_SIZE):
            draws.next_client()
        reference = np.random.default_rng(1)
        expected_first = reference.integers(12, size=BLOCK_SIZE).tolist()
        expected_second = reference.integers(12, size=BLOCK_SIZE).tolist()
        assert draws._clients == expected_first
        assert draws.next_client() == expected_second[0]

    def test_gap_scaling_is_consumption_time(self):
        """``next_gap`` returns the *standard* variate; rate changes between
        consumptions rescale later gaps without perturbing the stream."""
        draws = BlockDraws(np.random.default_rng(2), 4, None, 4)
        raw = np.random.default_rng(2).standard_exponential(BLOCK_SIZE).tolist()
        assert draws.next_gap() * 0.5 == raw[0] * 0.5
        assert draws.next_gap() * 0.25 == raw[1] * 0.25

    def test_skewed_clients_use_weighted_choice(self):
        probs = DemandSkew(client_fraction=0.25, demand_fraction=0.8).client_probabilities(8)
        draws = BlockDraws(np.random.default_rng(3), 8, probs, 5)
        expected = np.random.default_rng(3).choice(8, size=BLOCK_SIZE, p=probs).tolist()
        assert [draws.next_client() for _ in range(10)] == expected[:10]


class TestBlockRNG:
    def test_integers_is_floor_of_uniform(self):
        adapter = BlockRNG(np.random.default_rng(4))
        uniforms = np.random.default_rng(4).random(BLOCK_SIZE).tolist()
        assert [adapter.integers(7) for _ in range(20)] == [int(u * 7) for u in uniforms[:20]]

    def test_pair_is_distinct(self):
        adapter = BlockRNG(np.random.default_rng(5))
        for _ in range(500):
            a, b = adapter.pair(5)
            assert a != b
            assert 0 <= a < 5 and 0 <= b < 5

    def test_choice_pair_matches_pair(self):
        lhs = BlockRNG(np.random.default_rng(6))
        rhs = BlockRNG(np.random.default_rng(6))
        for _ in range(50):
            assert lhs.choice(9, size=2, replace=False) == rhs.pair(9)

    def test_weighted_choice_is_inverse_cdf(self):
        adapter = BlockRNG(np.random.default_rng(7))
        uniforms = np.random.default_rng(7).random(BLOCK_SIZE).tolist()
        p = [0.5, 0.3, 0.2]
        for i in range(20):
            u = uniforms[i]
            expected = 0 if u < 0.5 else (1 if u < 0.8 else 2)
            assert adapter.choice(3, p=p) == expected

    def test_unsupported_shapes_rejected(self):
        adapter = BlockRNG(np.random.default_rng(8))
        with pytest.raises(NotImplementedError):
            adapter.choice(5, size=3, replace=False)
        with pytest.raises(NotImplementedError):
            adapter.choice(5, size=2, p=[0.2] * 5)
