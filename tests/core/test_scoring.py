"""Unit tests for the replica-ranking scorer."""

import pytest

from repro.core.config import C3Config
from repro.core.feedback import ServerFeedback
from repro.core.scoring import ReplicaScorer, cubic_score


class TestCubicScore:
    def test_reduces_to_response_time_when_queue_is_one(self):
        # Ψ = R - 1/μ̄ + q̂³/μ̄; with q̂ = 1 the last two terms cancel.
        assert cubic_score(response_time=7.0, queue_estimate=1.0, service_time=4.0) == pytest.approx(7.0)

    def test_cubic_growth_in_queue(self):
        # Isolate the queue term by adding back the constant -1/μ̄ offset.
        service = 4.0
        s1 = cubic_score(0.0, 2.0, service) + service
        s2 = cubic_score(0.0, 4.0, service) + service
        assert s2 / s1 == pytest.approx(8.0)

    def test_slower_server_scores_worse_at_equal_queue(self):
        fast = cubic_score(0.0, 5.0, 4.0)
        slow = cubic_score(0.0, 5.0, 20.0)
        assert slow > fast

    def test_figure4_equal_score_point(self):
        # A queue of 20 at the 20 ms server equals a queue of 20·(20/4)^(1/3)
        # at the 4 ms server under the cubic score (queue-dominated regime).
        q_fast = 20.0 * (20.0 / 4.0) ** (1.0 / 3.0)
        slow = cubic_score(0.0, 20.0, 20.0) + 20.0
        fast = cubic_score(0.0, q_fast, 4.0) + 4.0
        assert fast == pytest.approx(slow, rel=1e-6)

    def test_linear_exponent_matches_linear_formula(self):
        score = cubic_score(0.0, 10.0, 4.0, exponent=1.0)
        assert score == pytest.approx(-4.0 + 10.0 * 4.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            cubic_score(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            cubic_score(0.0, -1.0, 1.0)


class TestReplicaScorerState:
    def test_outstanding_tracking(self):
        scorer = ReplicaScorer()
        scorer.on_send("a", now=0.0)
        scorer.on_send("a", now=0.0)
        scorer.on_send("b", now=0.0)
        assert scorer.outstanding("a") == 2
        assert scorer.outstanding("b") == 1
        assert scorer.total_outstanding() == 3
        scorer.on_response("a", None, response_time=1.0, now=1.0)
        assert scorer.outstanding("a") == 1

    def test_response_never_drops_outstanding_below_zero(self):
        scorer = ReplicaScorer()
        scorer.on_response("a", None, response_time=1.0, now=1.0)
        assert scorer.outstanding("a") == 0

    def test_feedback_updates_ewmas(self):
        scorer = ReplicaScorer(C3Config(ewma_alpha=1.0))
        fb = ServerFeedback(queue_size=6, service_time=8.0)
        scorer.on_send("a", 0.0)
        scorer.on_response("a", fb, response_time=12.0, now=1.0)
        stats = scorer.stats_for("a")
        assert stats.queue_size.value == 6.0
        assert stats.service_time.value == 8.0
        assert stats.response_time.value == 12.0
        assert stats.feedback_count == 1

    def test_response_without_feedback_still_updates_response_time(self):
        scorer = ReplicaScorer(C3Config(ewma_alpha=1.0))
        scorer.on_send("a", 0.0)
        scorer.on_response("a", None, response_time=9.0, now=1.0)
        stats = scorer.stats_for("a")
        assert stats.response_time.value == 9.0
        assert stats.feedback_count == 0

    def test_negative_response_time_rejected(self):
        scorer = ReplicaScorer()
        with pytest.raises(ValueError):
            scorer.on_response("a", None, response_time=-1.0, now=0.0)

    def test_timeout_frees_slot_and_keeps_estimates(self):
        scorer = ReplicaScorer(C3Config(ewma_alpha=1.0))
        scorer.on_send("a", 0.0)
        scorer.on_response("a", None, response_time=7.0, now=1.0)
        scorer.on_send("a", 2.0)
        scorer.on_timeout("a")
        assert scorer.outstanding("a") == 0
        assert scorer.stats_for("a").response_time.value == 7.0
        assert scorer.counters.timeouts == 1

    def test_reset_server_forgets_state(self):
        scorer = ReplicaScorer()
        scorer.on_send("a", 0.0)
        scorer.reset_server("a")
        assert "a" not in scorer.known_servers
        assert scorer.outstanding("a") == 0

    def test_snapshot_contains_all_servers(self):
        scorer = ReplicaScorer()
        scorer.on_send("a", 0.0)
        scorer.on_send("b", 0.0)
        snap = scorer.snapshot()
        assert set(snap) == {"a", "b"}
        assert snap["a"]["outstanding"] == 1


class TestReplicaScorerQueueEstimate:
    def test_queue_estimate_includes_concurrency_compensation(self):
        config = C3Config(concurrency_weight=10.0, ewma_alpha=1.0)
        scorer = ReplicaScorer(config)
        scorer.on_send("a", 0.0)
        scorer.on_send("a", 0.0)
        # q̂ = 1 + os·w + q̄ = 1 + 2·10 + 0
        assert scorer.queue_estimate("a") == pytest.approx(21.0)

    def test_queue_estimate_includes_feedback(self):
        config = C3Config(concurrency_weight=1.0, ewma_alpha=1.0)
        scorer = ReplicaScorer(config)
        scorer.on_send("a", 0.0)
        scorer.on_response("a", ServerFeedback(queue_size=5, service_time=2.0), 3.0, 1.0)
        assert scorer.queue_estimate("a") == pytest.approx(1.0 + 0.0 + 5.0)

    def test_unknown_server_has_baseline_estimate(self):
        scorer = ReplicaScorer()
        assert scorer.queue_estimate("never-seen") == pytest.approx(1.0)


class TestReplicaScorerRanking:
    def _loaded_scorer(self):
        config = C3Config(ewma_alpha=1.0, concurrency_weight=1.0)
        scorer = ReplicaScorer(config)
        # Server "fast": low queue, low service time.
        scorer.on_send("fast", 0.0)
        scorer.on_response("fast", ServerFeedback(queue_size=1, service_time=2.0), 3.0, 1.0)
        # Server "slow": long queue, high service time.
        scorer.on_send("slow", 0.0)
        scorer.on_response("slow", ServerFeedback(queue_size=10, service_time=10.0), 40.0, 1.0)
        return scorer

    def test_rank_prefers_lower_score(self):
        scorer = self._loaded_scorer()
        assert scorer.rank(["slow", "fast"]) == ["fast", "slow"]

    def test_scores_array_matches_score(self):
        scorer = self._loaded_scorer()
        fast, slow = scorer.scores_array(["fast", "slow"])
        assert fast == pytest.approx(scorer.score("fast"))
        assert slow == pytest.approx(scorer.score("slow"))

    def test_outstanding_requests_push_ranking_away(self):
        config = C3Config(ewma_alpha=1.0, concurrency_weight=5.0)
        scorer = ReplicaScorer(config)
        for server in ("a", "b"):
            scorer.on_send(server, 0.0)
            scorer.on_response(server, ServerFeedback(queue_size=2, service_time=4.0), 5.0, 1.0)
        # Pile outstanding requests onto "a".
        for _ in range(5):
            scorer.on_send("a", 2.0)
        assert scorer.rank(["a", "b"])[0] == "b"

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            ReplicaScorer().rank([])

    def test_ranking_is_deterministic_for_equal_scores(self):
        scorer = ReplicaScorer()
        first = scorer.rank(["x", "y", "z"])
        second = scorer.rank(["z", "y", "x"])
        assert first == second

    def test_higher_demand_client_ranks_shared_server_worse(self):
        """The concurrency-compensation property from §3.1."""
        config = C3Config(ewma_alpha=1.0, concurrency_weight=3.0)
        light, heavy = ReplicaScorer(config), ReplicaScorer(config)
        feedback = ServerFeedback(queue_size=4, service_time=4.0)
        for scorer in (light, heavy):
            scorer.on_send("s", 0.0)
            scorer.on_response("s", feedback, 6.0, 1.0)
        for _ in range(4):
            heavy.on_send("s", 2.0)
        assert heavy.score("s") > light.score("s")


class TestDenseLayout:
    """The dense-array restructuring: vectorized scores and kernel views."""

    @staticmethod
    def _random_scorer(rng, num_servers, config=None):
        scorer = ReplicaScorer(config or C3Config(ewma_alpha=0.7, concurrency_weight=2.0))
        for _ in range(200):
            sid = int(rng.integers(num_servers))
            scorer.on_send(sid, float(rng.random()))
            if rng.random() < 0.8:
                feedback = ServerFeedback(
                    queue_size=float(rng.integers(0, 30)),
                    service_time=float(rng.uniform(0.001, 25.0)),
                )
                scorer.on_response(sid, feedback, float(rng.uniform(0.0, 50.0)), 1.0)
        return scorer

    def test_scores_array_bitwise_equals_scalar_scores(self):
        """The vectorized group scoring must be *bitwise* equal to the scalar
        loop — golden digests ride on these scores, and ``rank`` switches
        between the two paths purely on group width."""
        np = pytest.importorskip("numpy")
        for seed in range(20):
            rng = np.random.default_rng(seed)
            scorer = self._random_scorer(rng, num_servers=24)
            group = list(range(24))
            vectorized = scorer.scores_array(group).tolist()
            scalar = [scorer.score(sid) for sid in group]
            assert vectorized == scalar  # exact, not approx

    def test_wide_rank_matches_narrow_rank(self):
        """rank scores a group far wider than any replication factor like a narrow one.

        ``rank`` has one scalar path for every group size; on 40 replicas it
        orders by the scalar scores, then outstanding requests, then id.
        """
        np = pytest.importorskip("numpy")
        rng = np.random.default_rng(3)
        scorer = self._random_scorer(rng, num_servers=40)
        group = list(range(40))
        wide = scorer.rank(group)
        # Rebuild the expected order from scalar scores with the same
        # decorate-sort contract rank applies.
        decorated = sorted(
            (scorer.score(sid), scorer.outstanding(sid), f"int:{sid!r}", k)
            for k, sid in enumerate(group)
        )
        assert wide == [group[d[3]] for d in decorated]

    def test_kernel_state_returns_live_views_for_integer_ids(self):
        scorer = ReplicaScorer()
        state = scorer.kernel_state(4)
        assert state is not None
        rt_val, rt_cnt = state[0], state[1]
        # Views are live: a scorer-method update is immediately visible.
        scorer.on_response(2, None, 12.5, 0.0)
        assert rt_val[2] == 12.5 and rt_cnt[2] == 1
        # And a direct array write is visible through the scorer API.
        out = state[6]
        out[1] += 3
        assert scorer.outstanding(1) == 3

    def test_kernel_state_refuses_non_identity_slots(self):
        scorer = ReplicaScorer()
        scorer.on_send("west-1", 0.0)  # first-contact slot 0 is not server 0
        assert scorer.kernel_state(3) is None

    def test_kernel_state_leaves_counters_on_the_scorer(self):
        """The kernel bumps ``scorer.counters`` in place: the object stays the
        same across ``kernel_state`` and a write through it is the scorer's."""
        scorer = ReplicaScorer()
        counters = scorer.counters
        assert scorer.kernel_state(3) is not None
        assert scorer.counters is counters
        scorer.on_send(0, 0.0)
        counters.sends += 1
        counters.score_evaluations += 3
        assert scorer.counters.sends == 2
        assert scorer.counters.score_evaluations == 3
