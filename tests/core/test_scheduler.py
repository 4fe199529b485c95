"""Unit tests for the C3 scheduler (Algorithms 1 and 2)."""

import pytest

from repro.core.config import C3Config
from repro.core.feedback import ServerFeedback
from repro.core.scheduler import C3Scheduler, ReplicaSelector
from repro.core.scoring import ReplicaScorer
from repro.strategies import StrategySpec, base


def make_scheduler(**overrides) -> C3Scheduler:
    defaults = dict(initial_rate=2.0, rate_delta_ms=10.0, concurrency_weight=1.0)
    defaults.update(overrides)
    return C3Scheduler(C3Config(**defaults))


class TestSubmit:
    def test_submit_selects_a_group_member(self):
        scheduler = make_scheduler()
        decision = scheduler.submit("req", ("a", "b", "c"), now=0.0)
        assert decision.sent
        assert decision.server_id in ("a", "b", "c")
        assert decision.ranking and set(decision.ranking) == {"a", "b", "c"}

    def test_submit_empty_group_rejected(self):
        with pytest.raises(ValueError):
            make_scheduler().submit("req", (), now=0.0)

    def test_submit_increments_outstanding(self):
        scheduler = make_scheduler()
        decision = scheduler.submit("req", ("a", "b"), now=0.0)
        assert scheduler.scorer.outstanding(decision.server_id) == 1

    def test_submit_prefers_better_scored_replica(self):
        scheduler = make_scheduler(ewma_alpha=1.0)
        # Teach the scorer that "slow" has a long queue and high service time.
        scheduler.scorer.on_send("slow", 0.0)
        scheduler.scorer.on_response("slow", ServerFeedback(queue_size=20, service_time=20.0), 50.0, 1.0)
        scheduler.scorer.on_send("fast", 0.0)
        scheduler.scorer.on_response("fast", ServerFeedback(queue_size=1, service_time=2.0), 3.0, 1.0)
        decision = scheduler.submit("req", ("slow", "fast"), now=2.0)
        assert decision.server_id == "fast"

    def test_backpressure_when_all_replicas_rate_limited(self):
        scheduler = make_scheduler(initial_rate=1.0)
        group = ("a", "b")
        # Exhaust both servers' windows.
        sent = [scheduler.submit(f"r{i}", group, now=0.0) for i in range(2)]
        assert all(d.sent for d in sent)
        blocked = scheduler.submit("r-extra", group, now=0.0)
        assert blocked.backpressured and not blocked.sent
        assert blocked.retry_after_ms > 0.0
        assert scheduler.pending_backlog() == 1
        assert scheduler.requests_backpressured == 1

    def test_rate_control_disabled_never_backpressures(self):
        scheduler = make_scheduler(rate_control_enabled=False, initial_rate=1.0)
        decisions = [scheduler.submit(f"r{i}", ("a",), now=0.0) for i in range(20)]
        assert all(d.sent for d in decisions)
        assert scheduler.pending_backlog() == 0


class TestOnResponse:
    def test_response_updates_scorer_and_rate_control(self):
        scheduler = make_scheduler()
        decision = scheduler.submit("req", ("a",), now=0.0)
        scheduler.on_response(decision.server_id, ServerFeedback(queue_size=2, service_time=3.0), 4.0, 5.0)
        assert scheduler.scorer.outstanding("a") == 0
        assert scheduler.responses_received == 1

    def test_response_releases_backlog(self):
        scheduler = make_scheduler(initial_rate=1.0)
        group = ("a",)
        first = scheduler.submit("r1", group, now=0.0)
        assert first.sent
        blocked = scheduler.submit("r2", group, now=0.0)
        assert blocked.backpressured
        # A window later the limiter refills; the response triggers a drain.
        released = scheduler.on_response("a", ServerFeedback(queue_size=1, service_time=2.0), 3.0, now=15.0)
        assert released == [("r2", "a")]
        assert scheduler.pending_backlog() == 0

    def test_drain_backlog_without_permits_keeps_requests(self):
        scheduler = make_scheduler(initial_rate=1.0)
        scheduler.submit("r1", ("a",), now=0.0)
        scheduler.submit("r2", ("a",), now=0.0)
        assert scheduler.pending_backlog() == 1
        assert scheduler.drain_backlog(now=0.0) == []
        assert scheduler.pending_backlog() == 1

    def test_drain_backlog_returns_request_server_pairs(self):
        scheduler = make_scheduler(initial_rate=1.0)
        scheduler.submit("r1", ("a",), now=0.0)
        assert scheduler.submit("r2", ("a",), now=0.0).backpressured
        # A window later the limiter has refilled.
        assert scheduler.drain_backlog(now=15.0) == [("r2", "a")]
        assert scheduler.pending_backlog() == 0

    def test_next_retry_hint(self):
        scheduler = make_scheduler(initial_rate=1.0)
        scheduler.submit("r1", ("a",), now=0.0)
        scheduler.submit("r2", ("a",), now=0.0)
        hint = scheduler.next_retry_ms(now=0.0)
        assert hint is not None and hint > 0.0

    def test_next_retry_none_when_empty(self):
        assert make_scheduler().next_retry_ms(0.0) is None

    def test_on_timeout_decrements_outstanding(self):
        scheduler = make_scheduler()
        decision = scheduler.submit("req", ("a",), now=0.0)
        scheduler.on_timeout(decision.server_id, now=1.0)
        assert scheduler.scorer.outstanding("a") == 0


class TestStats:
    def test_stats_shape(self):
        scheduler = make_scheduler()
        scheduler.submit("r", ("a", "b"), now=0.0)
        stats = scheduler.stats()
        assert stats["submitted"] == 1
        assert stats["sent"] == 1
        assert "backlog" in stats and "scorer" in stats

    def test_sending_rates_exposed(self):
        scheduler = make_scheduler()
        scheduler.submit("r", ("a",), now=0.0)
        assert "a" in scheduler.sending_rates()


class TestRateControllers:
    def test_controllers_created_lazily(self, c3_config):
        scheduler = C3Scheduler(c3_config)
        assert scheduler.sending_rates() == {}
        scheduler.controller("a")
        assert list(scheduler.sending_rates()) == ["a"]

    def test_try_acquire_and_rates(self, c3_config):
        scheduler = C3Scheduler(c3_config)
        assert scheduler.controller("a").try_acquire(0.0)
        assert scheduler.sending_rates() == {"a": c3_config.initial_rate}

    def test_earliest_availability_zero_when_any_server_free(self, c3_config):
        scheduler = C3Scheduler(c3_config)
        # Exhaust "a" but leave "b" untouched.
        while scheduler.controller("a").try_acquire(0.0):
            pass
        assert scheduler.earliest_availability(["a", "b"], 0.0) == 0.0

    def test_earliest_availability_positive_when_all_exhausted(self, c3_config):
        scheduler = C3Scheduler(c3_config)
        for server in ("a", "b"):
            while scheduler.controller(server).try_acquire(0.0):
                pass
        assert scheduler.earliest_availability(["a", "b"], 0.0) > 0.0

    def test_record_history_propagates(self, c3_config):
        scheduler = C3Scheduler(c3_config)
        assert scheduler.record_history is False
        scheduler.record_history = True  # set after building, before any request
        assert scheduler.controller("x").record_history is True


class TestSelectorApi:
    def test_c3_and_rr_specs_build_the_scheduler(self):
        assert base.ReplicaSelector is ReplicaSelector
        for spec in ("c3", "rr"):
            selector = StrategySpec.parse(spec).build()
            assert isinstance(selector, C3Scheduler)
            assert isinstance(selector, ReplicaSelector)

    def test_kernel_state_shares_live_state(self):
        scheduler = make_scheduler()
        state = scheduler.kernel_state(3)
        assert state is not None
        scorer_state, controllers = state
        assert controllers == [scheduler.controller(sid) for sid in range(3)]
        scheduler.scorer.on_send(1, 0.0)
        assert scorer_state[6][1] == 1  # the outstanding array, shared live

    def test_kernel_state_none_for_subclassed_scorer(self):
        class CustomScorer(ReplicaScorer):
            pass

        scheduler = make_scheduler()
        scheduler.scorer = CustomScorer(scheduler.config)
        assert scheduler.kernel_state(3) is None

    def test_batched_kernel_counts_on_the_scheduler_itself(self):
        """The batched kernel's inlined C3 path bumps the scheduler's own
        counters and its scorer's: a loop timer inside the run reads them
        current, equal to what the object kernel has counted by then."""
        from repro.simulator.simulation import ReplicaSelectionSimulation, SimulationConfig

        seen = {}
        for kernel in ("object", "batched"):
            config = SimulationConfig(
                num_servers=6, num_clients=4, num_requests=400, seed=3, strategy="C3", kernel=kernel
            )
            sim = ReplicaSelectionSimulation(config)
            snapshots = seen[kernel] = []

            def snapshot(sim=sim, snapshots=snapshots) -> None:
                for client in sim.clients:
                    selector = client.selector
                    snapshots.append((selector.stats(), selector.scorer.counters.as_dict()))

            sim.loop.schedule(config.num_requests / config.target_arrival_rate_per_ms / 2, snapshot)
            sim.run()
        assert len(seen["batched"]) == 4
        assert sum(stats["sent"] for stats, _ in seen["batched"]) > 0
        assert sum(counters["responses"] for _, counters in seen["batched"]) > 0
        assert seen["batched"] == seen["object"]
