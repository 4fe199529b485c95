"""C3's knobs are declared once, on ``C3Config``; the param dataclasses derive from it."""

import dataclasses
import typing

import pytest

from repro.controls.rate import CubicRateParams
from repro.core.config import C3Config
from repro.strategies.c3 import C3Params

CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(C3Config)}
CONFIG_HINTS = typing.get_type_hints(C3Config)


@pytest.mark.parametrize(
    ("params_cls", "module"),
    [(C3Params, "repro.strategies.c3"), (CubicRateParams, "repro.controls.rate")],
)
def test_params_are_frozen_slotted_dataclasses_of_their_module(params_cls, module):
    assert dataclasses.is_dataclass(params_cls)
    assert params_cls.__dataclass_params__.frozen
    assert "__slots__" in vars(params_cls)
    assert params_cls.__module__ == module
    assert "C3Config" in params_cls.__doc__


def test_c3_params_declare_every_config_field_in_order():
    assert [f.name for f in dataclasses.fields(C3Params)] == list(CONFIG_FIELDS)


@pytest.mark.parametrize("name", list(CONFIG_FIELDS))
def test_c3_param_matches_its_config_field(name):
    param = {f.name: f for f in dataclasses.fields(C3Params)}[name]
    hint = typing.get_type_hints(C3Params)[name]
    if name == "concurrency_weight":
        # The one documented difference: None means "derived from the
        # number of clients in the deployment".
        assert param.default is None
        assert hint == (CONFIG_HINTS[name] | None)
    else:
        assert param.default == CONFIG_FIELDS[name].default
        assert type(param.default) is type(CONFIG_FIELDS[name].default)
        assert hint == CONFIG_HINTS[name]

