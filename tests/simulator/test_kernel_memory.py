"""The batched kernel's request state grows with in-flight requests, not with
the run's length.

Two properties of a streaming C3 run:

* its ``tracemalloc`` peak at eight times the request count stays within 2x
  of the shorter run's (a kernel that kept every request's slot and every
  completion time reached 2.8x at these sizes, 6.4x at 5 000 → 40 000; one
  that buffered completion times for a periodic flush 1.86x);
* after every slice, the arena holds exactly the requests still in flight
  plus its free list, and its length tracks peak in-flight rather than
  ``num_requests``.

Both run well under five seconds; the traced runs are small because
``tracemalloc`` resolves a line number per allocation, which costs the most
in a function as long as ``run_slice``.
"""

from __future__ import annotations

import tracemalloc

from repro.simulator.kernel import BatchedKernel
from repro.simulator.simulation import ReplicaSelectionSimulation, SimulationConfig


def _simulation(num_requests: int) -> ReplicaSelectionSimulation:
    config = SimulationConfig(
        kernel="batched",
        metrics_mode="streaming",
        strategy="C3",
        num_servers=9,
        num_clients=10,
        num_requests=num_requests,
        seed=3,
    )
    return ReplicaSelectionSimulation(config)


def _traced_peak(num_requests: int) -> int:
    simulation = _simulation(num_requests)
    tracemalloc.start()
    try:
        simulation.run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_traced_peak_does_not_grow_with_the_request_count():
    _simulation(100).run()  # imports and first-use caches out of the way
    small = _traced_peak(400)
    large = _traced_peak(3_200)
    assert large <= 2 * small, (small, large)


def _slice_samples(monkeypatch, num_requests: int) -> list[tuple[int, int, int]]:
    """``(arena, free, in_flight)`` after every slice of one run."""
    samples = []
    run_slice = BatchedKernel.run_slice

    def sampled(kernel: BatchedKernel, until: float) -> None:
        run_slice(kernel, until)
        # Without hedging every response frees its own slot, so the
        # requests in flight are the ones created and not yet answered.
        metrics = kernel.metrics
        answered = sum(client.responses_handled for client in kernel.clients)
        in_flight = metrics.issued_requests + metrics.duplicate_requests - answered
        samples.append((len(kernel._created), len(kernel._free), in_flight))

    monkeypatch.setattr(BatchedKernel, "run_slice", sampled)
    result = _simulation(num_requests).run()
    assert result.completed_requests == num_requests
    assert result.duplicate_requests > 0  # read-repair copies took slots too
    return samples


def test_arena_holds_in_flight_requests_only(monkeypatch):
    num_requests = 16_000
    samples = _slice_samples(monkeypatch, num_requests)
    for arena, free, in_flight in samples:
        assert arena == in_flight + free
    # The arena is as long as the most requests ever in flight at once; the
    # slice ends see nearly that many (mid-slice peaks are a little higher).
    arena = samples[-1][0]
    peak_in_flight = max(in_flight for _, _, in_flight in samples)
    assert arena <= 2 * peak_in_flight
    assert arena < num_requests // 10
