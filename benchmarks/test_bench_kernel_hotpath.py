"""Benchmarks of the batched event-loop kernel against the object path.

The batched kernel is the flat simulator's hot-path engine: typed heap
entries instead of Event objects, arena request state instead of Request
instances, inlined per-event handlers (including the C3 submit/response
path against the scorer's dense arrays), and dense per-server/per-client
accounting.  Exact-mode results are digest-identical to the
object path per RNG regime (``tests/simulator/test_kernel_equivalence.py``
pins ``rng="v1"``, ``tests/simulator/test_rng_block.py`` pins
``rng="block"``), so the only thing left to regress is speed — which
these benchmarks watch two ways:

* the batched wall-clock itself is recorded in the perf job's
  ``BENCH_ci.json`` artifact like every other benchmark;
* the object/batched speedup ratio is measured interleaved (best-of-N of
  each, alternating, so box-load drift hits both paths equally) and
  asserted against a conservative floor.  Measured on the CI box:
  ~2.9x for LOR and ~2.4x for C3 under ``rng="v1"``, rising to ~3.7x
  (LOR) and ~2.8x (C3) under ``rng="block"``, where block-drawn variates
  remove the per-arrival Generator-call overhead that both kernels
  otherwise share.  The floors are set below the noise band of the
  weakest measured run, not at the headline numbers; the issue's
  aspirational 8x(LOR)/10x targets remain out of reach while the
  irreducible per-request selector/service arithmetic stays in Python
  (see ROADMAP item 1 for the remaining gap).
"""

import time

from repro.simulator.simulation import ReplicaSelectionSimulation, SimulationConfig

#: Hot-path configuration: the default read-heavy workload at default
#: utilization/read-repair, sized so one run takes well over 50 ms on both
#: kernels.
N_REQUESTS = 20_000
BASE = dict(num_servers=10, num_clients=12, num_requests=N_REQUESTS, seed=7)


def _run(kernel: str, strategy: str, rng: str = "v1") -> str:
    config = SimulationConfig(kernel=kernel, strategy=strategy, rng=rng, **BASE)
    return ReplicaSelectionSimulation(config).run().digest()


def _timed(kernel: str, strategy: str, rng: str) -> tuple[float, str]:
    start = time.perf_counter()
    digest = _run(kernel, strategy, rng)
    return time.perf_counter() - start, digest


def _speedup(strategy: str, rng: str = "v1", rounds: int = 5) -> tuple[float, str, str]:
    """Interleaved best-of-``rounds`` object/batched ratio + both digests."""
    best_object = best_batched = float("inf")
    for _ in range(rounds):
        elapsed, object_digest = _timed("object", strategy, rng)
        best_object = min(best_object, elapsed)
        elapsed, batched_digest = _timed("batched", strategy, rng)
        best_batched = min(best_batched, elapsed)
    return best_object / best_batched, object_digest, batched_digest


def _gate_speedup(benchmark, gate, strategy: str, rng: str, floor: float, rounds: int = 5) -> None:
    """Shared speedup gate: interleaved measurement + digest equality + floor.

    Digest equality is re-asserted inside every gate so a speedup can never
    silently come from diverging behavior; the floor itself is a wall-clock
    ratio, so ``gate`` (the ``wall_clock_gate`` fixture) enforces it in the
    CI perf job only.
    """

    def measure():
        ratio, object_digest, batched_digest = _speedup(strategy, rng, rounds)
        assert object_digest == batched_digest
        return ratio

    ratio = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["strategy"] = strategy
    benchmark.extra_info["rng"] = rng
    gate("speedup", ratio, at_least=floor)


def test_bench_kernel_hotpath_lor_batched(benchmark):
    """Batched-kernel wall clock on the hottest configuration (LOR)."""
    digest = benchmark.pedantic(lambda: _run("batched", "LOR"), rounds=3, iterations=1)
    benchmark.extra_info["strategy"] = "LOR"
    benchmark.extra_info["requests"] = N_REQUESTS
    assert digest


def test_bench_kernel_hotpath_c3_batched(benchmark):
    """Batched-kernel wall clock with the paper's strategy (C3)."""
    digest = benchmark.pedantic(lambda: _run("batched", "C3"), rounds=3, iterations=1)
    benchmark.extra_info["strategy"] = "C3"
    benchmark.extra_info["requests"] = N_REQUESTS
    assert digest


def test_bench_kernel_hotpath_c3_batched_block(benchmark):
    """Batched-kernel wall clock for C3 under the block RNG regime."""
    digest = benchmark.pedantic(
        lambda: _run("batched", "C3", rng="block"), rounds=3, iterations=1
    )
    benchmark.extra_info["strategy"] = "C3"
    benchmark.extra_info["rng"] = "block"
    benchmark.extra_info["requests"] = N_REQUESTS
    assert digest


def test_bench_kernel_speedup_and_equivalence(benchmark, wall_clock_gate):
    """The batched kernel must stay several times faster than the object path.

    The assertion floor (2.5x on LOR, ``rng="v1"``) sits under the measured
    2.9–3.3x so CI noise cannot flake it, while still catching any change
    that erodes the batched kernel's advantage.
    """
    _gate_speedup(benchmark, wall_clock_gate, "LOR", "v1", floor=2.5, rounds=3)


def test_bench_kernel_speedup_c3(benchmark, wall_clock_gate):
    """C3 speedup gate, ``rng="v1"``: floor 1.9x under a measured 2.3-2.55x.

    The object path this is measured against runs the same flat C3 core
    (one pass per submit and per response), so the ratio is what the
    kernel's typed event loop and request arena buy on top of it; the floor
    keeps the margin the other gates have (about 80 % of the measurement).
    """
    _gate_speedup(benchmark, wall_clock_gate, "C3", "v1", floor=1.9)


def test_bench_kernel_speedup_block_lor(benchmark, wall_clock_gate):
    """LOR speedup gate, ``rng="block"``: floor 3.0x under a measured ~4.0x.

    The issue's aspirational 8x is not reachable on this box — the object
    path itself gets faster under block draws (the BlockRNG adapter serves
    its selectors too), so the ratio's ceiling is set by the per-request
    Python arithmetic both kernels share.  The floor is honest, not
    aspirational; ROADMAP item 1 records the remaining gap.
    """
    _gate_speedup(benchmark, wall_clock_gate, "LOR", "block", floor=3.0)


def test_bench_kernel_speedup_block_c3(benchmark, wall_clock_gate):
    """C3 speedup gate, ``rng="block"``: floor 2.1x under a measured 2.7-2.95x."""
    _gate_speedup(benchmark, wall_clock_gate, "C3", "block", floor=2.1)
