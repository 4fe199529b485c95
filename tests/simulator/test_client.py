"""Unit tests for the simulated client node."""

import numpy as np
import pytest

from repro.core.config import C3Config
from repro.core.scheduler import C3Scheduler
from repro.simulator.client import SimClient
from repro.simulator.engine import EventLoop
from repro.simulator.metrics import MetricsCollector
from repro.simulator.network import ConstantLatency
from repro.simulator.request import Request
from repro.simulator.server import SimServer
from repro.strategies import LeastOutstandingSelector


class Harness:
    """A miniature two-server simulation around one client."""

    def __init__(self, selector, read_repair_probability=0.0, seed=0, service_times=(4.0, 4.0)):
        self.loop = EventLoop()
        self.metrics = MetricsCollector()
        self.servers = {}
        for i, service_time in enumerate(service_times):
            server = SimServer(
                self.loop,
                server_id=i,
                base_service_time_ms=service_time,
                concurrency=1,
                deterministic=True,
                rng=np.random.default_rng(i),
                on_complete=self._on_server_complete,
            )
            self.servers[i] = server
        self.client = SimClient(
            loop=self.loop,
            client_id=0,
            selector=selector,
            servers=self.servers,
            network=ConstantLatency(0.0),
            metrics=self.metrics,
            read_repair_probability=read_repair_probability,
            rng=np.random.default_rng(seed),
        )

    def _on_server_complete(self, request, feedback, service_time):
        self.loop.schedule(0.0, self.client.on_server_response, request, feedback, service_time)

    def submit(self, count=1, group=(0, 1)):
        requests = []
        for _ in range(count):
            request = Request.create(client_id=0, replica_group=group, created_at=self.loop.now)
            requests.append(request)
            self.client.on_request(request)
        return requests


class TestBasicFlow:
    def test_request_completes_and_records_latency(self):
        harness = Harness(LeastOutstandingSelector(rng=np.random.default_rng(0)))
        (request,) = harness.submit(1)
        harness.loop.run_until_idle()
        assert request.completed_at is not None
        assert harness.metrics.completed_requests == 1
        assert request.latency == pytest.approx(4.0)

    def test_multiple_requests_all_complete(self):
        harness = Harness(LeastOutstandingSelector(rng=np.random.default_rng(0)))
        requests = harness.submit(6)
        harness.loop.run_until_idle()
        assert all(r.completed_at is not None for r in requests)
        assert harness.metrics.completed_requests == 6

    def test_lor_spreads_requests_across_servers(self):
        harness = Harness(LeastOutstandingSelector(rng=np.random.default_rng(0)))
        harness.submit(4)
        harness.loop.run_until_idle()
        assert harness.servers[0].requests_received == 2
        assert harness.servers[1].requests_received == 2


class TestReadRepair:
    def test_read_repair_duplicates_to_other_replicas(self):
        harness = Harness(
            LeastOutstandingSelector(rng=np.random.default_rng(0)), read_repair_probability=1.0
        )
        harness.submit(1)
        harness.loop.run_until_idle()
        total_received = sum(s.requests_received for s in harness.servers.values())
        assert total_received == 2  # primary + one duplicate (RF=2 group)
        assert harness.client.read_repairs_issued == 1
        # Only the primary counts towards latency.
        assert harness.metrics.completed_requests == 1
        assert harness.metrics.duplicate_requests == 1

    def test_no_read_repair_when_probability_zero(self):
        harness = Harness(
            LeastOutstandingSelector(rng=np.random.default_rng(0)), read_repair_probability=0.0
        )
        harness.submit(3)
        harness.loop.run_until_idle()
        assert harness.client.read_repairs_issued == 0

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            Harness(LeastOutstandingSelector(), read_repair_probability=1.5)


class TestBackpressureRetries:
    def _c3_selector(self, initial_rate=1.0):
        config = C3Config(initial_rate=initial_rate, rate_delta_ms=10.0, concurrency_weight=1.0)
        return C3Scheduler(config)

    def test_backpressured_requests_eventually_complete(self):
        harness = Harness(self._c3_selector(initial_rate=1.0))
        requests = harness.submit(6)
        harness.loop.run_until_idle()
        assert all(r.completed_at is not None for r in requests)
        assert harness.metrics.backpressure_events > 0

    def test_backpressured_request_marked(self):
        harness = Harness(self._c3_selector(initial_rate=1.0))
        requests = harness.submit(6)
        harness.loop.run_until_idle()
        assert any(r.backpressured for r in requests)

    def test_selector_outstanding_returns_to_zero(self):
        selector = self._c3_selector(initial_rate=2.0)
        harness = Harness(selector)
        harness.submit(8)
        harness.loop.run_until_idle()
        assert selector.scorer.total_outstanding() == 0
        assert selector.pending_backlog() == 0

    def test_c3_prefers_the_faster_server(self):
        selector = self._c3_selector(initial_rate=100.0)
        harness = Harness(selector, service_times=(2.0, 20.0))
        # Submit sequentially so feedback is available for later requests.
        for _ in range(20):
            harness.submit(1)
            harness.loop.run_until_idle()
        assert harness.servers[0].requests_received > harness.servers[1].requests_received
