"""Bound samplers are the scalar Generator calls they replace, bit for bit.

Every value a sampler returns must equal the Generator method's, and the
generator must end in the same state, however sampler draws interleave with
the Generator's own scalar, vector and weighted calls on the same stream.
"""

from __future__ import annotations

import gc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import samplers
from repro.simulator.workload import DemandSkew
from repro.workloads.records import ZipfSkewedRecordSize

#: ``integers(n)`` bounds covering each branch of numpy's bounded sampler:
#: n = 1 draws nothing, 32-bit Lemire below 2**32 - 1, a raw 32-bit word at
#: 2**32 - 1 and 2**32, 64-bit Lemire above.
SIZES = (1, 2, 3, 9, 150, 2**32 - 1, 2**32, 2**40)

BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64)

#: A step is ``(kind, argument, through_sampler)``; the last flag only
#: matters for the five kinds a sampler serves.
STEPS = st.one_of(
    st.tuples(st.just("random"), st.none(), st.booleans()),
    st.tuples(st.just("standard_exponential"), st.none(), st.booleans()),
    st.tuples(st.just("exponential"), st.floats(min_value=1e-3, max_value=1e3), st.booleans()),
    st.tuples(st.just("integers"), st.sampled_from(SIZES), st.booleans()),
    st.tuples(st.just("random_vector"), st.integers(min_value=0, max_value=20), st.just(False)),
    st.tuples(st.just("exponential_vector"), st.integers(min_value=0, max_value=20), st.just(False)),
    st.tuples(
        st.just("choice"),
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=6),
        st.booleans(),
    ),
)


def method_call(rng, kind, arg):
    if kind == "random":
        return rng.random()
    if kind == "standard_exponential":
        return rng.standard_exponential()
    if kind == "exponential":
        return rng.exponential(arg)
    if kind == "integers":
        return int(rng.integers(arg))
    if kind == "random_vector":
        return rng.random(arg).tolist()
    if kind == "exponential_vector":
        return rng.standard_exponential(arg).tolist()
    return int(rng.choice(len(arg), p=probabilities(arg)))


def probabilities(weights):
    weights = np.array(weights)
    return weights / weights.sum()


def state_of(rng):
    """The bit generator's state with arrays as lists (MT19937 keeps a key
    array), so two states compare with ``==``."""

    def plain(value):
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        if isinstance(value, np.ndarray):
            return value.tolist()
        return value

    return plain(rng.bit_generator.state)


@settings(max_examples=200, deadline=None)
@given(
    bit_generator=st.sampled_from(BIT_GENERATORS),
    seed=st.integers(min_value=0, max_value=2**63 - 1),
    steps=st.lists(STEPS, max_size=60),
)
def test_samplers_are_the_generator_calls_they_replace(bit_generator, seed, steps):
    served = np.random.Generator(bit_generator(seed))
    raw = np.random.Generator(bit_generator(seed))
    uniform = samplers.uniform(served)
    exponential = samplers.standard_exponential(served)
    below = {n: samplers.below(served, n) for n in SIZES}
    through_sampler = {
        "random": lambda _: uniform(),
        "standard_exponential": lambda _: exponential(),
        "exponential": lambda scale: scale * exponential(),
        "integers": lambda n: below[n](),
        "choice": lambda weights: samplers.weighted(served, probabilities(weights))(),
    }
    for kind, arg, sampled in steps:
        got = through_sampler[kind](arg) if sampled else method_call(served, kind, arg)
        assert got == method_call(raw, kind, arg), (kind, arg, sampled)
    assert state_of(served) == state_of(raw)


def test_below_one_consumes_nothing():
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    draw = samplers.below(rng, 1)
    assert [draw() for _ in range(10)] == [0] * 10
    assert rng.bit_generator.state == before


def test_below_rejects_bounds_integers_rejects():
    rng = np.random.default_rng(0)
    for n in (0, -1, 2**63 + 1):
        with pytest.raises(ValueError):
            samplers.below(rng, n)


def test_a_sampler_outlives_its_generator():
    draw = samplers.uniform(np.random.default_rng(11))
    temporary = np.random.default_rng(12)
    exponential = samplers.standard_exponential(temporary)
    del temporary
    gc.collect()
    churn = [np.random.default_rng(i) for i in range(64)]  # reuse freed memory
    uniform_reference = np.random.default_rng(11)
    exponential_reference = np.random.default_rng(12)
    assert [draw() for _ in range(100)] == [uniform_reference.random() for _ in range(100)]
    assert [exponential() for _ in range(100)] == [
        exponential_reference.standard_exponential() for _ in range(100)
    ]


#: The probabilities the workloads draw through ``weighted``: Zipf field
#: sizes over 1-200 bytes, and 80 % of the demand from 20 % of 150 clients.
WEIGHTS = {
    "record_sizes": ZipfSkewedRecordSize()._probs,
    "demand_skew": DemandSkew(0.2).client_probabilities(150),
}


@pytest.mark.parametrize("name", sorted(WEIGHTS))
def test_weighted_is_generator_choice_draw_for_draw(name):
    p = WEIGHTS[name]
    served = np.random.default_rng(7)
    raw = np.random.default_rng(7)
    draw = samplers.weighted(served, p)
    count = 100_000
    assert [draw() for _ in range(count)] == [int(raw.choice(len(p), p=p)) for _ in range(count)]
    assert state_of(served) == state_of(raw)


def test_weighted_rejects_what_choice_rejects():
    rng = np.random.default_rng(0)
    for p in ([], [[0.5, 0.5]], [0.5, 0.6], [1.5, -0.5], [np.nan, 1.0]):
        with pytest.raises(ValueError):
            samplers.weighted(rng, p)
