"""Unit tests for gossip, background events and the cluster node."""

from functools import partial
from operator import methodcaller

import numpy as np
import pytest

from repro.cluster.events import CompactionProcess, GCPauseProcess
from repro.cluster.gossip import GossipService
from repro.cluster.node import ClusterNode
from repro.cluster.storage import StorageEngine
from repro.scenarios.processes import PoissonEpisodes
from repro.simulator.engine import EventLoop
from repro.simulator.request import Request, RequestKind


def make_node(loop, node_id=0, concurrency=2, on_complete=None, cache_hit=0.0):
    storage = StorageEngine(
        cache_hit_probability=cache_hit, rng=np.random.default_rng(node_id), deterministic=True
    )
    return ClusterNode(
        loop, node_id=node_id, storage=storage, concurrency=concurrency, on_complete=on_complete,
        rng=np.random.default_rng(node_id),
    )


def read_request(node_id=0, record_size=1024):
    return Request.create(client_id=99, replica_group=(node_id,), created_at=0.0, record_size=record_size)


class TestGossipService:
    def test_latest_iowait_defaults_to_zero(self):
        loop = EventLoop()
        gossip = GossipService(loop)
        assert gossip.latest_iowait("unknown") == 0.0

    def test_periodic_publication(self):
        loop = EventLoop()
        gossip = GossipService(loop, interval_ms=100.0)
        value = {"iowait": 0.1}
        gossip.register("n1", lambda: value["iowait"])
        gossip.start()
        loop.run(until=50.0)
        assert gossip.latest_iowait("n1") == pytest.approx(0.1)
        value["iowait"] = 0.8
        loop.run(until=250.0)
        assert gossip.latest_iowait("n1") == pytest.approx(0.8)

    def test_publication_is_delayed_by_interval(self):
        """The staleness that makes DS mis-rank peers."""
        loop = EventLoop()
        gossip = GossipService(loop, interval_ms=1000.0)
        value = {"iowait": 0.0}
        gossip.register("n1", lambda: value["iowait"])
        gossip.start()
        loop.run(until=10.0)
        value["iowait"] = 1.0
        loop.run(until=500.0)
        assert gossip.latest_iowait("n1") == 0.0  # still the stale value

    def test_manual_publish_and_clamping(self):
        loop = EventLoop()
        gossip = GossipService(loop)
        gossip.publish("n2", iowait=3.0)
        assert gossip.latest_iowait("n2") == 1.0
        assert gossip.staleness_ms("n2") == 0.0

    def test_snapshot_and_staleness_unknown(self):
        loop = EventLoop()
        gossip = GossipService(loop)
        gossip.publish("a", 0.2)
        assert gossip.snapshot() == {"a": 0.2}
        assert gossip.staleness_ms("ghost") == float("inf")

    def test_validation(self):
        with pytest.raises(ValueError):
            GossipService(EventLoop(), interval_ms=0.0)


class TestBackgroundEvents:
    def test_compaction_process_toggles_nodes(self):
        loop = EventLoop()
        node = make_node(loop)
        process = CompactionProcess(
            loop, [node], mean_interarrival_ms=50.0, mean_duration_ms=20.0, rng=np.random.default_rng(0)
        )
        process.start()
        loop.run(until=2000.0)
        assert process.compactions_started > 0
        assert node.storage.compactions == process.compactions_started

    def test_gc_pause_process_pauses_nodes(self):
        loop = EventLoop()
        node = make_node(loop)
        events = []
        process = GCPauseProcess(
            loop, [node], mean_interarrival_ms=50.0, mean_pause_ms=10.0,
            rng=np.random.default_rng(1), on_event=lambda n, t, d: events.append(t),
        )
        process.start()
        loop.run(until=1000.0)
        assert process.pauses > 0
        assert node.gc_pauses == process.pauses
        assert len(events) == process.pauses

    @pytest.mark.parametrize(
        "face, duration_kwarg",
        [(CompactionProcess, "mean_duration_ms"), (GCPauseProcess, "mean_pause_ms"),
         pytest.param(
             partial(PoissonEpisodes, begin=methodcaller("begin"), end=methodcaller("end")),
             "mean_duration_ms", id="PoissonEpisodes-mean_duration_ms",
         )],
    )
    def test_episode_sequence_is_pinned(self, face, duration_kwarg):
        """The one Poisson episode loop and its two cluster faces draw and schedule alike.

        Captured from the three separate loops this one replaced.  Both draws
        come off one shared ``rng`` as edges fire — the gap as a target's
        previous episode ends, the duration as the next begins — so a change
        in either the draws or the order edges fire in moves every value.
        """
        loop = EventLoop()
        edges = []

        class Target:
            def __init__(self, name):
                self.server_id = name

            def begin(self):
                edges.append((loop.now, "begin", self.server_id))

            def end(self):
                edges.append((loop.now, "end", self.server_id))

            begin_compaction = begin_gc_pause = begin
            end_compaction = end_gc_pause = end

        episodes = []
        process = face(
            loop, [Target(name) for name in "abc"], mean_interarrival_ms=60.0,
            rng=np.random.default_rng(11),
            on_event=lambda target, now, duration: episodes.append((now, target.server_id, duration)),
            **{duration_kwarg: 25.0},
        )
        process.start()
        loop.run(until=130.0)
        assert episodes == [
            (13.775545879046422, "a", 1.1449259962957345),
            (21.91553431150633, "a", 94.77153611641809),
            (32.2984204705386, "b", 1.7851715065663658),
            (45.405241213790475, "b", 7.298168744477905),
            (67.34446087202093, "c", 8.65148631022409),
            (94.9302999582421, "b", 25.40550502223633),
            (124.46203203659594, "a", 33.87977820521232),
            (124.89380003111232, "c", 68.18643570546715),
        ]
        # Each episode begins and ends its own target, and nothing else fires.
        assert edges == sorted(
            [(now, "begin", name) for now, name, _ in episodes]
            + [(now + duration, "end", name) for now, name, duration in episodes if now + duration <= 130.0]
        )
        assert loop.processed_events == len(edges) == 14

    def test_validation(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            CompactionProcess(loop, [], mean_interarrival_ms=0.0)
        with pytest.raises(ValueError):
            GCPauseProcess(loop, [], mean_pause_ms=0.0)


class TestClusterNode:
    def test_read_completes_with_feedback(self):
        loop = EventLoop()
        completions = []
        node = make_node(loop, on_complete=lambda r, f, st: completions.append((r, f, st)))
        node.enqueue(read_request())
        loop.run_until_idle()
        assert len(completions) == 1
        request, feedback, service_time = completions[0]
        assert request.completed_at is None  # the coordinator marks completion
        assert feedback.server_id == 0
        assert service_time > 0
        assert node.reads_completed == 1

    def test_write_faster_than_read(self):
        loop = EventLoop()
        times = {}

        def on_complete(request, feedback, service_time):
            times[request.kind] = service_time

        node = make_node(loop, on_complete=on_complete)
        node.enqueue(read_request())
        write = Request.create(client_id=1, replica_group=(0,), created_at=0.0, kind=RequestKind.WRITE)
        node.enqueue(write)
        loop.run_until_idle()
        assert times[RequestKind.WRITE] < times[RequestKind.READ]

    def test_concurrency_bound(self):
        loop = EventLoop()
        node = make_node(loop, concurrency=2)
        for _ in range(5):
            node.enqueue(read_request())
        assert node.in_service == 2
        assert node.queue_length == 3
        assert node.pending_requests == 5

    def test_gc_pause_stalls_service(self):
        loop = EventLoop()
        completions = []
        node = make_node(loop, on_complete=lambda r, f, st: completions.append(loop.now))
        node.begin_gc_pause()
        node.enqueue(read_request())
        loop.run(until=50.0)
        assert completions == []
        node.end_gc_pause()
        loop.run_until_idle()
        assert len(completions) == 1

    def test_slowdown_scales_service_times(self):
        loop = EventLoop()
        durations = []
        node = make_node(loop, on_complete=lambda r, f, st: durations.append(st))
        node.enqueue(read_request())
        loop.run_until_idle()
        baseline = durations[-1]
        node.set_slowdown(4.0)
        node.enqueue(read_request())
        loop.run_until_idle()
        assert durations[-1] == pytest.approx(baseline * 4.0, rel=0.3)
        node.clear_slowdown()
        assert node.slowdown == 1.0

    def test_current_service_time_reflects_conditions(self):
        loop = EventLoop()
        node = make_node(loop)
        base = node.current_service_time_ms
        node.begin_compaction()
        assert node.current_service_time_ms > base
        node.end_compaction()
        node.begin_gc_pause()
        assert node.current_service_time_ms > base
        node.end_gc_pause()

    def test_feedback_queue_size_counts_pending(self):
        loop = EventLoop()
        feedbacks = []
        node = make_node(loop, concurrency=1, on_complete=lambda r, f, st: feedbacks.append(f))
        for _ in range(3):
            node.enqueue(read_request())
        loop.run_until_idle()
        assert [fb.queue_size for fb in feedbacks] == [2, 1, 0]

    def test_stats_shape(self):
        loop = EventLoop()
        node = make_node(loop)
        node.enqueue(read_request())
        loop.run_until_idle()
        stats = node.stats()
        assert stats["completed"] == 1 and stats["reads"] == 1
        assert "storage" in stats

    def test_validation(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            ClusterNode(loop, 0, StorageEngine(), concurrency=0)
        node = make_node(loop)
        with pytest.raises(ValueError):
            node.set_slowdown(0.0)
