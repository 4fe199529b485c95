"""Unit tests for request records."""

import itertools

import pytest

from repro.simulator.request import Request, RequestKind, record_size_factor
from repro.simulator.simulation import ReplicaSelectionSimulation, SimulationConfig


@pytest.mark.parametrize(
    "record_size, factor",
    [(0, 1.0), (-1, 1.0), (1, 0.25), (256, 0.25), (300, 300 / 1024.0), (1024, 1.0), (4096, 4.0)],
)
def test_record_size_factor(record_size, factor):
    """One record-size scale for the server, the cluster's storage and the kernel."""
    assert record_size_factor(record_size) == factor


class TestRequest:
    def test_create_assigns_unique_ids(self):
        a = Request.create(client_id=0, replica_group=(1, 2), created_at=0.0)
        b = Request.create(client_id=0, replica_group=(1, 2), created_at=0.0)
        assert a.request_id != b.request_id

    def test_latency_none_until_completed(self):
        request = Request.create(client_id=0, replica_group=(1,), created_at=5.0)
        assert request.latency is None
        request.mark_completed(12.5)
        assert request.latency == 7.5

    def test_mark_dispatched_records_server_and_attempts(self):
        request = Request.create(client_id=0, replica_group=(1, 2), created_at=0.0)
        request.mark_dispatched(1.0, server_id=2)
        assert request.server_id == 2
        assert request.dispatched_at == 1.0
        assert request.attempts == 1

    def test_queueing_delay(self):
        request = Request.create(client_id=0, replica_group=(1,), created_at=0.0)
        assert request.queueing_delay is None
        request.mark_dispatched(1.0, 1)
        request.started_service_at = 4.0
        assert request.queueing_delay == 3.0

    def test_duplicate_detection(self):
        parent = Request.create(client_id=0, replica_group=(1,), created_at=0.0)
        dup = Request.create(
            client_id=0, replica_group=(1,), created_at=0.0, parent_id=parent.request_id
        )
        assert not parent.is_duplicate
        assert dup.is_duplicate

    def test_replica_group_stored_as_tuple(self):
        request = Request.create(client_id=0, replica_group=[3, 4, 5], created_at=0.0)
        assert request.replica_group == (3, 4, 5)

    def test_default_kind_is_read(self):
        request = Request.create(client_id=0, replica_group=(1,), created_at=0.0)
        assert request.kind == RequestKind.READ

    def test_request_kinds_enumerated(self):
        assert set(RequestKind.ALL) == {"read", "write", "read_repair", "speculative"}

    def test_first_completion_wins(self):
        # Under hedging, a straggling response for an already-completed
        # request must not overwrite the winning timestamp.
        request = Request.create(client_id=0, replica_group=(1,), created_at=0.0)
        request.mark_completed(3.0)
        request.mark_completed(10.0)
        assert request.completed_at == 3.0
        assert request.latency == 3.0

    def test_create_honors_explicit_id_source(self):
        ids = itertools.count(100)
        a = Request.create(client_id=0, replica_group=(1,), created_at=0.0, id_source=ids)
        b = Request.create(client_id=0, replica_group=(1,), created_at=0.0, id_source=ids)
        assert (a.request_id, b.request_id) == (100, 101)


class TestPerSimulationRequestIds:
    """Request ids must be reproducible run-to-run within one process.

    Pooled sweep workers reuse a process across trials; with the old
    process-global counter the second trial's ids continued where the first
    stopped, so exported traces differed between serial and pooled runs.
    """

    CONFIG = dict(
        num_servers=6,
        replication_factor=3,
        num_clients=4,
        num_requests=60,
        fluctuation_enabled=False,
        strategy="LOR",
        seed=7,
    )

    @staticmethod
    def _run_and_capture_ids(config: SimulationConfig) -> list[int]:
        sim = ReplicaSelectionSimulation(config)
        seen: list[int] = []
        for client in sim.clients:
            original = client.on_request

            def wrapped(request, _original=original):
                seen.append(request.request_id)
                _original(request)

            client.on_request = wrapped
        sim.run()
        return seen

    def test_ids_identical_across_runs_in_one_process(self):
        config = SimulationConfig(**self.CONFIG)
        first = self._run_and_capture_ids(config)
        # Pollute the process-global counter the way unrelated work in a
        # pooled worker would; per-simulation ids must not care.
        for _ in range(500):
            Request.create(client_id="x", replica_group=(0,), created_at=0.0)
        second = self._run_and_capture_ids(config)
        assert first == second
        assert first[0] == 0  # each run's ids start from zero
