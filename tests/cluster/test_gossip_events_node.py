"""Unit tests for gossip, background events and the cluster node."""

from operator import methodcaller

import numpy as np
import pytest

from repro.cluster import CassandraCluster, ClusterConfig
from repro.cluster.gossip import GossipService
from repro.cluster.node import ClusterNode
from repro.cluster.storage import StorageEngine
from repro.scenarios.processes import PoissonEpisodes
from repro.simulator.engine import EventLoop
from repro.simulator.request import Request, RequestKind
from repro.simulator.server import SimServer


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


def episodes(loop, targets, begin, end, mean_interarrival_ms=50.0, mean_duration_ms=10.0, seed=0):
    """A :class:`PoissonEpisodes` loop, as the cluster builds its compactions and GC pauses."""
    return PoissonEpisodes(
        loop, targets, mean_interarrival_ms, mean_duration_ms, np.random.default_rng(seed),
        begin=begin, end=end,
    )


class TestBackgroundEvents:
    def test_compaction_process_toggles_nodes(self):
        loop = EventLoop()
        node = make_node(loop)
        process = episodes(
            loop, [node.storage], methodcaller("begin_compaction"), methodcaller("end_compaction"),
            mean_duration_ms=20.0,
        )
        process.start()
        loop.run(until=2000.0)
        assert process.started > 0
        assert node.storage.compactions == process.started

    def test_gc_pause_process_pauses_nodes(self):
        loop = EventLoop()
        node = make_node(loop)
        began, ended = [], []

        def begin(target):
            began.append(loop.now)
            target.crash()

        def end(target):
            ended.append(loop.now)
            target.restore()

        process = episodes(loop, [node], begin, end, seed=1)
        process.start()
        loop.run(until=1000.0)
        assert process.started > 0
        assert node.stats()["gc_pauses"] == node.crashes == len(began) == process.started
        # Each pause ends before the next begins on the same node.
        assert all(b < e < nb for b, e, nb in zip(began, ended, began[1:]))

    def test_cluster_builds_both_episode_loops(self):
        """Compactions target the storage engines, GC pauses the nodes, and the run reports both counts."""
        cluster = CassandraCluster(
            ClusterConfig(num_nodes=3, num_generators=2, duration_ms=300.0, num_keys=100, seed=1,
                          gc_interarrival_ms=100.0, compaction_interarrival_ms=150.0)
        )
        nodes = list(cluster.nodes.values())
        assert cluster.compaction.targets == [node.storage for node in nodes]
        assert cluster.gc.targets == nodes
        result = cluster.run()
        assert result.extra["compactions"] == cluster.compaction.started > 0
        assert result.extra["compactions"] == sum(node.storage.compactions for node in nodes)
        assert result.extra["gc_pauses"] == cluster.gc.started > 0
        assert result.extra["gc_pauses"] == sum(node.crashes for node in nodes)

    def test_episode_sequence_is_pinned(self):
        """The one Poisson episode loop draws and schedules as the loops it replaced did.

        Captured from the three separate loops this one replaced.  Both draws
        come off one shared ``rng`` as edges fire — the gap as a target's
        previous episode ends, the duration as the next begins — so a change
        in either the draws or the order edges fire in moves every value.
        """
        loop = EventLoop()
        edges = []

        def edge(kind):
            return lambda target: edges.append((loop.now, kind, target))

        process = episodes(
            loop, list("abc"), edge("begin"), edge("end"), mean_interarrival_ms=60.0,
            mean_duration_ms=25.0, seed=11,
        )
        process.start()
        loop.run(until=130.0)
        assert edges == [
            (13.775545879046422, "begin", "a"),
            (14.920471875342157, "end", "a"),
            (21.91553431150633, "begin", "a"),
            (32.2984204705386, "begin", "b"),
            (34.083591977104966, "end", "b"),
            (45.405241213790475, "begin", "b"),
            (52.70340995826838, "end", "b"),
            (67.34446087202093, "begin", "c"),
            (75.99594718224502, "end", "c"),
            (94.9302999582421, "begin", "b"),
            (116.68707042792443, "end", "a"),
            (120.33580498047843, "end", "b"),
            (124.46203203659594, "begin", "a"),
            (124.89380003111232, "begin", "c"),
        ]
        # Nothing but the edges fires.
        assert process.started == 8
        assert loop.processed_events == len(edges) == 14

    def test_validation(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            episodes(loop, [], methodcaller("crash"), methodcaller("restore"), mean_interarrival_ms=0.0)
        with pytest.raises(ValueError):
            episodes(loop, [], methodcaller("crash"), methodcaller("restore"), mean_duration_ms=0.0)


class TestClusterNode:
    def test_node_is_the_simulator_server(self):
        """The node adds only its storage-engine service times to the simulator's server.

        ``enqueue`` and ``_finish_service`` stay in the node's own class
        body: the benchmark's per-layer tracing wraps them there.
        """
        assert issubclass(ClusterNode, SimServer)
        assert vars(ClusterNode)["enqueue"] is SimServer.enqueue
        own = {name for name in vars(ClusterNode) if name == "__init__" or not name.startswith("__")}
        assert own == {
            "__init__", "current_service_time_ms", "enqueue", "_draw_service_time",
            "_finish_service", "stats",
        }

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
        node.crash()
        node.enqueue(read_request())
        loop.run(until=50.0)
        assert completions == []
        node.restore()
        loop.run_until_idle()
        assert len(completions) == 1

    def test_slowdown_scales_service_times(self):
        loop = EventLoop()
        durations = []
        node = make_node(loop, on_complete=lambda r, f, st: durations.append(st))
        node.enqueue(read_request())
        loop.run_until_idle()
        baseline = durations[-1]
        node.set_service_time_multiplier(4.0)
        node.enqueue(read_request())
        loop.run_until_idle()
        assert durations[-1] == pytest.approx(baseline * 4.0, rel=0.3)
        node.set_service_time_multiplier(1.0)
        node.enqueue(read_request())
        loop.run_until_idle()
        assert durations[-1] == pytest.approx(baseline, rel=0.3)

    def test_current_service_time_reflects_conditions(self):
        loop = EventLoop()
        node = make_node(loop)
        base = node.current_service_time_ms
        node.storage.begin_compaction()
        assert node.current_service_time_ms > base
        node.storage.end_compaction()
        node.crash()
        assert node.current_service_time_ms == base * 10.0
        node.restore()
        assert node.current_service_time_ms == base

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
            node.set_service_time_multiplier(0.0)
