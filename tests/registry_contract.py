"""The registry/spec contract, written once and run over every registry.

``repro.strategies.specbase`` promises the same behaviour for any family of
named, parameterized things; these classes state it once.  A registry's test
module subclasses each contract with that registry's data (its aliases, a
misspelt name, example params ...), so the suites of the strategy registry
(``tests/strategies/test_spec.py``) and the control registry
(``tests/controls/test_registry_spec.py``) are the same code over two rows
of data.  Assertions about *particular* entries stay in those modules.

Not collected on its own: the class names do not start with ``Test``.
"""

from __future__ import annotations

import dataclasses
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.strategies.specbase import Registry, RegistryEntry, Spec


class RegistryContract:
    """Name resolution and registration rules of one :class:`Registry`."""

    registry: Registry
    #: ``(spelling, canonical name)``: aliases and odd-case canonical names.
    ALIASES: list[tuple[str, str]]
    #: ``(misspelt name, the canonical name the error must suggest)``.
    TYPO: tuple[str, str]

    def pytest_generate_tests(self, metafunc):
        if "alias" in metafunc.fixturenames:
            metafunc.parametrize("alias,canonical", self.ALIASES)

    def test_aliases_resolve_case_insensitively(self, alias, canonical):
        assert self.registry.resolve(alias).name == canonical
        assert self.registry.resolve(alias.swapcase()).name == canonical

    def test_unknown_name_has_did_you_mean(self):
        misspelt, suggestion = self.TYPO
        with pytest.raises(ValueError, match=f"did you mean {suggestion!r}"):
            self.registry.resolve(misspelt)

    def test_unknown_name_lists_valid_names(self):
        listing = re.escape("valid names: " + ", ".join(self.registry.names()))
        with pytest.raises(ValueError, match=listing):
            self.registry.resolve(f"definitely-not-a-{self.registry.noun}")

    def test_non_string_name_rejected(self):
        with pytest.raises(TypeError, match=f"{self.registry.noun} name must be a string"):
            self.registry.resolve(3)

    def test_duplicate_name_rejected(self):
        entry = self.registry.get(self.registry.names()[0])
        with pytest.raises(ValueError, match="already registered"):
            self.registry.add(dataclasses.replace(entry))

    def test_duplicate_alias_rejected(self):
        first, second = (self.registry.get(name) for name in self.registry.names()[:2])
        clash = dataclasses.replace(first, name=first.name + "2", aliases=(second.name.swapcase(),))
        with pytest.raises(ValueError, match="already registered"):
            self.registry.add(clash)
        assert first.name + "2" not in self.registry.names()

    def test_undeclared_kind_rejected(self):
        entry = self.registry.get(self.registry.names()[0])
        with pytest.raises(ValueError, match="declares unknown kind 'no-such-kind'"):
            self.registry.add(dataclasses.replace(entry, name="fresh", aliases=(), kind="no-such-kind"))

    def test_every_registration_has_description_and_params(self):
        for name in self.registry.names():
            entry = self.registry.get(name)
            assert isinstance(entry, RegistryEntry)
            assert entry.description
            assert dataclasses.is_dataclass(entry.params_cls)
            assert entry.kind in self.registry.kinds


class SpecParsingContract:
    """Canonicalization rules of one :class:`Spec` subclass."""

    spec_cls: type[Spec]
    #: ``(spelling that sets a param to its default, the bare spelling)``.
    DEFAULTED: list[tuple[str, str]]
    #: Two spellings of one configuration: a param alias and its field name.
    ALIASED: tuple[str, str]
    #: A mapping reference and the spec string it must equal.
    MAPPING: tuple[dict, str]
    #: A mapping with a misspelt top-level key.
    BAD_MAPPING: dict
    #: A spec string with non-default params, and the ``params_dict`` it parses to.
    NON_DEFAULT: tuple[str, dict]
    #: ``(spec with a misspelt param, the param the error must suggest)``.
    PARAM_TYPO: tuple[str, str]

    def test_default_valued_params_are_dropped(self):
        # "Explicitly the default" and "unset" share one spec, one canonical
        # string, one digest — hence one sweep cache key.
        for explicit, bare in self.DEFAULTED:
            spec = self.spec_cls.parse(explicit)
            assert spec == self.spec_cls.parse(bare)
            assert spec.canonical() == self.spec_cls.parse(bare).name
            assert spec.digest() == self.spec_cls.parse(bare).digest()

    def test_param_alias_expands(self):
        alias, target = self.ALIASED
        assert self.spec_cls.parse(alias) == self.spec_cls.parse(target)

    def test_mapping_form(self):
        mapping, text = self.MAPPING
        assert self.spec_cls.parse(mapping) == self.spec_cls.parse(text)

    def test_mapping_form_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown keys"):
            self.spec_cls.parse(self.BAD_MAPPING)

    def test_mapping_form_needs_a_name(self):
        with pytest.raises(ValueError, match="needs a 'name' key"):
            self.spec_cls.parse({"params": {}})

    def test_unparseable_type_rejected(self):
        with pytest.raises(TypeError, match=f"or {self.spec_cls.__name__}"):
            self.spec_cls.parse(3)

    def test_spec_passthrough_is_idempotent(self):
        spec = self.spec_cls.parse(self.NON_DEFAULT[0])
        assert self.spec_cls.parse(spec) == spec

    def test_non_default_params_round_trip(self):
        text, params = self.NON_DEFAULT
        spec = self.spec_cls.parse(text)
        assert spec.params_dict == params
        assert self.spec_cls.parse(spec.canonical()) == spec
        assert str(spec) == spec.canonical()

    def test_distinct_params_distinct_digests(self):
        spec = self.spec_cls.parse(self.NON_DEFAULT[0])
        assert spec.digest() != self.spec_cls.parse(spec.name).digest()

    def test_unknown_param_has_did_you_mean(self):
        text, suggestion = self.PARAM_TYPO
        with pytest.raises(ValueError, match=f"did you mean {suggestion!r}"):
            self.spec_cls.parse(text)


@st.composite
def spec_cases(draw, param_values):
    """A random valid ``(name, params)`` drawn from ``{name: {field: (example values ...)}}``."""
    name = draw(st.sampled_from(sorted(param_values)))
    pool = param_values[name]
    keys = draw(st.lists(st.sampled_from(sorted(pool)), unique=True)) if pool else []
    return name, {key: draw(st.sampled_from(pool[key])) for key in keys}


def spec_properties_contract(spec_cls: type[Spec], param_values: dict[str, dict[str, tuple]]) -> type:
    """Round-trip and digest properties of ``spec_cls`` over random valid specs.

    A function building the class (not a shared base like the contracts
    above) because hypothesis wants each ``@given`` test run by one class.
    """

    class SpecPropertiesContract:
        @settings(max_examples=150, deadline=None)
        @given(spec_cases(param_values))
        def test_canonical_round_trip(self, case):
            name, params = case
            spec = spec_cls.of(name, params)
            reparsed = spec_cls.parse(spec.canonical())
            assert reparsed == spec
            assert reparsed.canonical() == spec.canonical()

        @settings(max_examples=150, deadline=None)
        @given(spec_cases(param_values))
        def test_digest_is_spelling_independent(self, case):
            name, params = case
            spec = spec_cls.of(name, params)
            # Same configuration via string, mapping, and swapped-case spellings.
            assert spec_cls.parse(spec.canonical()).digest() == spec.digest()
            assert spec_cls.parse({"name": name.swapcase(), "params": params}).digest() == spec.digest()

    return SpecPropertiesContract
