"""Unit tests for the strategy factory and the selector interface contract."""

import numpy as np
import pytest

from repro.core.config import C3Config
from repro.core.scheduler import C3Scheduler
from repro.strategies import (
    STRATEGY_NAMES,
    DynamicSnitchSelector,
    LeastOutstandingSelector,
    OracleSelector,
    RoundRobinSelector,
    make_selector,
)
from repro.strategies.base import SelectorDecision


def fake_state(server_id):
    return (1.0, 4.0)


class TestFactory:
    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_every_registered_name_builds(self, name):
        selector = make_selector(
            name,
            config=C3Config(),
            rng=np.random.default_rng(0),
            server_state_fn=fake_state,
            iowait_fn=lambda s: 0.0,
        )
        assert selector is not None

    def test_name_is_case_insensitive(self):
        assert isinstance(make_selector("c3"), C3Scheduler)
        assert isinstance(make_selector("lor"), LeastOutstandingSelector)

    def test_aliases(self):
        assert isinstance(make_selector("dynamic_snitch"), DynamicSnitchSelector)
        assert isinstance(make_selector("round_robin"), RoundRobinSelector)
        assert isinstance(make_selector("oracle", server_state_fn=fake_state), OracleSelector)

    def test_oracle_requires_state_fn(self):
        with pytest.raises(ValueError):
            make_selector("ORA")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_selector("definitely-not-a-strategy")

    def test_config_forwarded_to_c3(self):
        config = C3Config(score_exponent=2.0)
        selector = make_selector("C3", config=config)
        assert selector.config.score_exponent == 2.0


class TestSelectorContract:
    """Every selector obeys the submit/on_response interface contract."""

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_submit_returns_group_member_or_backpressure(self, name):
        selector = make_selector(
            name,
            config=C3Config(initial_rate=100.0),
            rng=np.random.default_rng(1),
            server_state_fn=fake_state,
            iowait_fn=lambda s: 0.0,
        )
        group = ("a", "b", "c")
        decision = selector.submit("request", group, now=0.0)
        assert isinstance(decision, SelectorDecision)
        assert decision.sent
        assert decision.server_id in group

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_on_response_returns_list(self, name):
        selector = make_selector(
            name,
            config=C3Config(initial_rate=100.0),
            rng=np.random.default_rng(1),
            server_state_fn=fake_state,
            iowait_fn=lambda s: 0.0,
        )
        decision = selector.submit("request", ("a", "b"), now=0.0)
        released = selector.on_response(decision.server_id, None, 3.0, now=1.0)
        assert isinstance(released, list)

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_stats_returns_dict(self, name):
        selector = make_selector(
            name,
            config=C3Config(),
            rng=np.random.default_rng(1),
            server_state_fn=fake_state,
            iowait_fn=lambda s: 0.0,
        )
        assert isinstance(selector.stats(), dict)

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_empty_group_rejected(self, name):
        selector = make_selector(
            name,
            config=C3Config(),
            rng=np.random.default_rng(1),
            server_state_fn=fake_state,
            iowait_fn=lambda s: 0.0,
        )
        with pytest.raises(ValueError):
            selector.submit("request", (), now=0.0)
