"""Unit tests for the baseline selectors (LOR, ORA, RAND, P2C)."""

import numpy as np
import pytest

from repro.core.feedback import ServerFeedback
from repro.strategies import (
    LeastOutstandingSelector,
    OracleSelector,
    PowerOfTwoSelector,
    RandomSelector,
)


class TestLeastOutstanding:
    def test_prefers_server_with_fewest_outstanding(self):
        selector = LeastOutstandingSelector(rng=np.random.default_rng(0))
        d1 = selector.submit("r1", ("a", "b"), 0.0)
        d2 = selector.submit("r2", ("a", "b"), 0.0)
        # The two requests must go to different servers.
        assert {d1.server_id, d2.server_id} == {"a", "b"}

    def test_response_frees_capacity(self):
        selector = LeastOutstandingSelector(rng=np.random.default_rng(0))
        d1 = selector.submit("r1", ("a", "b"), 0.0)
        selector.on_response(d1.server_id, None, 1.0, 1.0)
        assert selector.outstanding(d1.server_id) == 0

    def test_duplicate_sends_counted(self):
        selector = LeastOutstandingSelector(rng=np.random.default_rng(0))
        selector.on_duplicate_send("a", 0.0)
        assert selector.outstanding("a") == 1

    def test_timeout_decrements(self):
        selector = LeastOutstandingSelector(rng=np.random.default_rng(0))
        d = selector.submit("r", ("a",), 0.0)
        selector.on_timeout(d.server_id, 1.0)
        assert selector.outstanding(d.server_id) == 0

    def test_ties_broken_randomly(self):
        selector = LeastOutstandingSelector(rng=np.random.default_rng(42))
        chosen = {selector.choose(("a", "b", "c"), 0.0) for _ in range(60)}
        assert len(chosen) > 1


class TestOracle:
    def test_chooses_lowest_queue_times_service(self):
        state = {"a": (10, 4.0), "b": (1, 4.0), "c": (0, 100.0)}
        selector = OracleSelector(server_state_fn=lambda s: state[s])
        assert selector.choose(("a", "b", "c"), 0.0) == "b"

    def test_accounts_for_service_time(self):
        state = {"fast_long_queue": (5, 1.0), "slow_empty": (0, 50.0)}
        selector = OracleSelector(server_state_fn=lambda s: state[s])
        assert selector.choose(tuple(state), 0.0) == "fast_long_queue"

    def test_requires_state_fn(self):
        with pytest.raises(ValueError):
            OracleSelector(server_state_fn=None)

    def test_invalid_service_time_raises(self):
        selector = OracleSelector(server_state_fn=lambda s: (1, 0.0))
        with pytest.raises(ValueError):
            selector.choose(("a",), 0.0)


class TestRandom:
    def test_uniform_coverage(self):
        selector = RandomSelector(rng=np.random.default_rng(0))
        counts = {"a": 0, "b": 0, "c": 0}
        for _ in range(600):
            counts[selector.choose(("a", "b", "c"), 0.0)] += 1
        assert all(count > 120 for count in counts.values())


class TestPowerOfTwo:
    def test_single_member_group(self):
        selector = PowerOfTwoSelector(rng=np.random.default_rng(0))
        assert selector.choose(("only",), 0.0) == "only"

    def test_prefers_less_loaded_of_sampled_pair(self):
        selector = PowerOfTwoSelector(rng=np.random.default_rng(0))
        for _ in range(5):
            selector.record_send("a", 0.0)
        counts = {"a": 0, "b": 0}
        for _ in range(100):
            counts[selector.choose(("a", "b"), 0.0)] += 1
        assert counts["b"] > counts["a"]

    def test_feedback_updates_load_estimate(self):
        selector = PowerOfTwoSelector(alpha=1.0, rng=np.random.default_rng(0))
        selector.record_response("a", ServerFeedback(queue_size=9, service_time=1.0), 1.0, 1.0)
        assert selector.load_estimate("a") == pytest.approx(9.0)

    def test_outstanding_counts_balanced_by_responses(self):
        selector = PowerOfTwoSelector(rng=np.random.default_rng(0))
        selector.record_send("a", 0.0)
        selector.record_response("a", None, 1.0, 1.0)
        assert selector.load_estimate("a") == 0.0

