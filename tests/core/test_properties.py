"""Property-based tests (hypothesis) for the core C3 data structures."""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.config import C3Config
from repro.core.ewma import EWMA
from repro.core.feedback import ServerFeedback
from repro.core.rate_control import CubicRateController, cubic_rate
from repro.core.scheduler import C3Scheduler
from repro.core.scoring import ReplicaScorer, cubic_score

positive_floats = st.floats(min_value=1e-3, max_value=1e4, allow_nan=False, allow_infinity=False)
small_floats = st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False)


class TestEWMAProperties:
    @given(st.lists(small_floats, min_size=1, max_size=50), st.floats(min_value=0.01, max_value=1.0))
    def test_value_stays_within_sample_bounds(self, samples, alpha):
        ewma = EWMA(alpha=alpha)
        for sample in samples:
            ewma.update(sample)
        assert min(samples) - 1e-9 <= ewma.value <= max(samples) + 1e-9

    @given(st.lists(small_floats, min_size=1, max_size=50))
    def test_count_matches_updates(self, samples):
        ewma = EWMA()
        for sample in samples:
            ewma.update(sample)
        assert ewma.count == len(samples)


class TestScoreProperties:
    @given(small_floats, positive_floats, positive_floats)
    def test_score_monotone_in_queue_estimate(self, response_time, service_time, queue):
        lower = cubic_score(response_time, queue, service_time)
        higher = cubic_score(response_time, queue + 1.0, service_time)
        assert higher >= lower

    @given(small_floats, positive_floats, st.floats(min_value=1.5, max_value=100.0))
    def test_score_monotone_in_service_time_for_long_queues(self, response_time, service_time, queue):
        """With q̂ > 1 a slower server (larger 1/μ) must never score better."""
        slower = cubic_score(response_time, queue, service_time * 2.0)
        faster = cubic_score(response_time, queue, service_time)
        assert slower >= faster

    @given(
        st.lists(st.tuples(st.integers(0, 30), positive_floats, small_floats), min_size=1, max_size=8)
    )
    def test_rank_is_a_permutation_and_best_has_min_score(self, server_specs):
        scorer = ReplicaScorer(C3Config(ewma_alpha=1.0))
        group = []
        for idx, (queue, service_time, response_time) in enumerate(server_specs):
            server_id = f"s{idx}"
            group.append(server_id)
            scorer.on_send(server_id, 0.0)
            scorer.on_response(
                server_id,
                ServerFeedback(queue_size=queue, service_time=service_time),
                response_time,
                1.0,
            )
        ranking = scorer.rank(group)
        assert sorted(ranking) == sorted(group)
        scores = dict(zip(group, scorer.scores_array(group).tolist()))
        assert scores[ranking[0]] == min(scores.values())


class TestCubicRateProperties:
    @given(
        st.floats(min_value=0.0, max_value=1000.0),
        st.floats(min_value=0.1, max_value=500.0),
        st.floats(min_value=0.05, max_value=0.9),
        st.floats(min_value=1e-7, max_value=1.0),
    )
    def test_cubic_rate_is_monotone_in_elapsed_time(self, elapsed, r0, beta, gamma):
        assert cubic_rate(elapsed + 1.0, r0, beta, gamma) >= cubic_rate(elapsed, r0, beta, gamma)

    @given(st.floats(min_value=0.1, max_value=500.0), st.floats(min_value=0.05, max_value=0.9))
    def test_rate_at_zero_below_saturation(self, r0, beta):
        gamma = 1e-4
        assert cubic_rate(0.0, r0, beta, gamma) <= r0


class TestRateLimiterProperties:
    @given(
        st.floats(min_value=0.2, max_value=20.0),
        st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=100),
    )
    @settings(max_examples=50)
    def test_grants_never_exceed_rate_plus_carry_budget(self, rate, gaps):
        """Over any run, grants are bounded by the elapsed windows' budget."""
        delta = 10.0
        controller = CubicRateController(C3Config(initial_rate=rate, rate_delta_ms=delta))
        now = 0.0
        grants = 0
        for gap in gaps:
            now += gap
            if controller.try_acquire(now):
                grants += 1
        windows_elapsed = int(now // delta) + 1
        budget = windows_elapsed * rate + max(rate, 1.0)
        assert grants <= budget + 1e-9


class TestSchedulerProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=60),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_conservation_of_requests(self, group_picks, group_count):
        """Every submitted request is either sent or sits in the backlog."""
        config = C3Config(initial_rate=2.0, rate_delta_ms=10.0)
        scheduler = C3Scheduler(config)
        groups = [tuple(f"s{g}_{i}" for i in range(3)) for g in range(group_count)]
        now = 0.0
        for pick in group_picks:
            group = groups[pick % group_count]
            scheduler.submit(object(), group, now)
            now += 0.5
        assert scheduler.requests_sent + scheduler.pending_backlog() == scheduler.requests_submitted

    @given(st.integers(min_value=1, max_value=30))
    @settings(max_examples=30, deadline=None)
    def test_outstanding_counts_return_to_zero(self, n_requests):
        config = C3Config(initial_rate=1000.0)
        scheduler = C3Scheduler(config)
        group = ("a", "b", "c")
        sent_to = []
        for i in range(n_requests):
            decision = scheduler.submit(i, group, now=float(i))
            assert decision.sent
            sent_to.append(decision.server_id)
        for i, server in enumerate(sent_to):
            scheduler.on_response(server, ServerFeedback(queue_size=1, service_time=1.0), 1.0, 100.0 + i)
        assert scheduler.scorer.total_outstanding() == 0
