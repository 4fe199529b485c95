"""Every value constraint a constructor enforces also rejects the spec at parse time.

A spec that parses but cannot be built would get a cache key and then fail
mid-sweep inside a worker.  Each registered check is the constructor's own
function, so the two can only agree; these tests pin that they do.
"""

import pytest

from repro.cli import main
from repro.controls import ControlSpec
from repro.controls.detectors import PhiAccrualFailureDetector
from repro.controls.hedging import QuantileHedging
from repro.runner import SweepSpec
from repro.simulator import SimulationConfig
from repro.strategies import StrategySpec
from repro.strategies.dynamic_snitch import DynamicSnitchSelector
from repro.strategies.power_of_two import PowerOfTwoSelector

#: (spec family, spec string, constructor, the same params as keyword args)
UNBUILDABLE = [
    (ControlSpec, "hedge:history=10", QuantileHedging, {"history": 10}),
    (ControlSpec, "hedge:min_samples=2000", QuantileHedging, {"min_samples": 2000}),
    (ControlSpec, "hedge:quantile=1", QuantileHedging, {"quantile": 1.0}),
    (ControlSpec, "phi:window=0", PhiAccrualFailureDetector, {"window": 0}),
    (ControlSpec, "phi:floor_ms=0", PhiAccrualFailureDetector, {"floor_ms": 0.0}),
    (StrategySpec, "DS:update_interval_ms=0", DynamicSnitchSelector, {"update_interval_ms": 0.0}),
    (StrategySpec, "DS:badness_threshold=1", DynamicSnitchSelector, {"badness_threshold": 1.0}),
    (StrategySpec, "P2C:alpha=0", PowerOfTwoSelector, {"alpha": 0.0}),
    (StrategySpec, "P2C:alpha=7", PowerOfTwoSelector, {"alpha": 7.0}),
]


@pytest.mark.parametrize(
    ("family", "text", "constructor", "kwargs"), UNBUILDABLE, ids=[case[1] for case in UNBUILDABLE]
)
def test_parse_rejects_with_the_constructors_message(family, text, constructor, kwargs):
    with pytest.raises(ValueError) as built:
        constructor(**kwargs)
    with pytest.raises(ValueError) as parsed:
        family.parse(text)
    assert str(parsed.value) == str(built.value)


@pytest.mark.parametrize(
    ("family", "text"),
    [
        (ControlSpec, "hedge:history=50"),
        (ControlSpec, "hedge:min_samples=1000"),
        (ControlSpec, "hedge:min_samples=5,history=10"),
        (StrategySpec, "P2C:alpha=1"),
        (StrategySpec, "DS:badness_threshold=0.99"),
    ],
)
def test_boundary_values_still_parse(family, text):
    family.parse(text)


def test_sweep_with_unbuildable_hedging_is_rejected_before_any_trial(capsys, tmp_path):
    with pytest.raises(ValueError, match="invalid sample window"):
        SweepSpec(base=SimulationConfig(hedging="hedge:history=10"), grid={"strategy": ("C3",)})
    with pytest.raises(ValueError, match="invalid sample window"):
        SweepSpec(base=SimulationConfig(), grid={"hedging": (None, "hedge:history=10")})
    cache = tmp_path / "cache"
    code = main(["sweep", "--hedging", "hedge:history=10", "--cache-dir", str(cache), "--serial"])
    assert code == 2
    assert "invalid sample window" in capsys.readouterr().err
    assert not cache.exists()
