"""Batched kernel against the object path: one digest per strategy × ``rng``.

Exact-mode results are digest-identical to the object path in each RNG
regime: ``tests/simulator/test_kernel_equivalence.py`` (``v1``) and
``test_rng_block.py`` (``block``) hold the full matrix; these are its four
cells at the default workload, utilization and read-repair.  What that buys,
last measured interleaved (best of 5, 20 000 requests, 2-core box):
object/batched wall clock 2.9x (LOR) and 2.4x (C3) under ``v1``, 3.7x and 2.8x
under ``block``.  ``perfbench`` times the kernels end to end (``flat_c3``,
``flat_scale``); the per-cell ratio has no driver yet (ROADMAP item 1).
"""

from repro.simulator.simulation import ReplicaSelectionSimulation, SimulationConfig

BASE = dict(num_servers=10, num_clients=12, num_requests=400)


def _kernels_agree(strategy: str, rng: str, seed: int):
    def test() -> None:
        object_digest, batched_digest = (
            ReplicaSelectionSimulation(
                SimulationConfig(kernel=kernel, strategy=strategy, rng=rng, seed=seed, **BASE)
            ).run().digest()
            for kernel in ("object", "batched")
        )
        assert batched_digest == object_digest

    return test


# The three ``*_batched`` ids were batched-only wall-clock runs; they now
# hold the kernel to the object path on a second seed.
test_bench_kernel_hotpath_lor_batched = _kernels_agree("LOR", "v1", seed=11)
test_bench_kernel_hotpath_c3_batched = _kernels_agree("C3", "v1", seed=11)
test_bench_kernel_hotpath_c3_batched_block = _kernels_agree("C3", "block", seed=11)
test_bench_kernel_speedup_and_equivalence = _kernels_agree("LOR", "v1", seed=7)
test_bench_kernel_speedup_c3 = _kernels_agree("C3", "v1", seed=7)
test_bench_kernel_speedup_block_lor = _kernels_agree("LOR", "block", seed=7)
test_bench_kernel_speedup_block_c3 = _kernels_agree("C3", "block", seed=7)
