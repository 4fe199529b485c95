"""One registry and one spec type behind every named, parameterized family.

A strategy and a control are the same kind of thing: a canonical name, some
aliases, a frozen *param dataclass* whose defaults are the paper's values,
and a factory — addressed by the ``NAME[:key=value,...]`` grammar of
:mod:`repro.strategies.paramspec`.  :class:`Registry` holds one family's
registrations and resolves names; :class:`Spec` is the canonical ``(name,
explicit non-default params)`` value a config stores, prints and hashes into
cache keys.  ``strategies/registry.py`` and ``controls/registry.py`` each
instantiate a :class:`Registry` and bind the public names to its methods;
``StrategySpec`` / ``ControlSpec`` add only how their family is *built*.
"""

from __future__ import annotations

import dataclasses
import difflib
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Mapping, TypeVar

from .paramspec import Validator, format_params, parse_spec_string, resolve_param_overrides, spec_digest

__all__ = ["Factory", "Registry", "RegistryEntry", "Spec"]

#: Builder: ``(explicit params, runtime context) -> instance``; the context's
#: type (a ``BuildContext``, a keyword mapping) is the family's business.
Factory = Callable[[Mapping[str, Any], Any], Any]

SpecT = TypeVar("SpecT", bound="Spec")


@dataclass(frozen=True)
class RegistryEntry:
    """One registration: canonical name, kind, aliases, params, builder."""

    name: str
    kind: str
    aliases: tuple[str, ...]
    params_cls: type
    description: str
    factory: Factory
    param_aliases: Mapping[str, str] = field(default_factory=dict)
    requires: tuple[str, ...] = ()
    validate: Validator | None = None

    def param_defaults(self) -> dict[str, Any]:
        """``{field name: default value}`` of the param dataclass."""
        instance = self.params_cls()
        return {f.name: getattr(instance, f.name) for f in dataclasses.fields(self.params_cls)}

    def aliases_for(self, field_name: str) -> tuple[str, ...]:
        """Registered short-hand aliases mapping to ``field_name``, sorted."""
        return tuple(sorted(alias for alias, target in self.param_aliases.items() if target == field_name))


def _normalize(token: str) -> str:
    return token.strip().lower()


class Registry:
    """The registrations of one family, in registration order.

    ``noun`` names an entry in error messages (``"strategy"``,
    ``"control"``).  ``kinds`` maps each sub-family a registration may
    declare to its human-readable label (error messages, CLI listing); a
    family that is not subdivided has one kind.
    """

    def __init__(self, noun: str, kinds: Mapping[str, str]) -> None:
        self.noun = noun
        self.kinds = kinds
        self._entries: dict[str, RegistryEntry] = {}
        #: Case-normalized name/alias token -> canonical name.
        self._lookup: dict[str, str] = {}

    def add(self, entry: RegistryEntry) -> None:
        """Register ``entry``; its kind must be declared, its name and aliases new."""
        if entry.kind not in self.kinds:
            raise ValueError(
                f"{self.noun} {entry.name!r} declares unknown kind {entry.kind!r}; "
                f"valid kinds: {', '.join(self.kinds)}"
            )
        if entry.name in self._entries:
            raise ValueError(f"{self.noun} {entry.name!r} is already registered")
        tokens = {_normalize(token) for token in (entry.name, *entry.aliases)}
        for token in sorted(tokens):
            owner = self._lookup.get(token)
            if owner is not None:
                raise ValueError(f"{self.noun} name/alias {token!r} is already registered by {owner!r}")
        self._entries[entry.name] = entry
        for token in tokens:
            self._lookup[token] = entry.name

    def register(
        self,
        name: str,
        *,
        kind: str,
        aliases: tuple[str, ...] = (),
        params: type,
        description: str,
        context_args: tuple[str, ...] = (),
        param_aliases: Mapping[str, str] | None = None,
        factory: Factory | None = None,
        requires: tuple[str, ...] = (),
        validate: Validator | None = None,
    ) -> Callable[[type], type]:
        """Class decorator registering an implementation under ``name``.

        Parameters
        ----------
        name:
            Canonical name (``"C3"``, ``"phi"``); matching is case-insensitive.
        kind:
            The sub-family, one of the registry's ``kinds``.
        aliases:
            Alternate names accepted wherever the name is.
        params:
            Frozen dataclass of the tunable parameters; field defaults are
            the paper's / Cassandra's values.
        description:
            One-line description for the CLI listing and the README table.
        context_args:
            Attributes of the runtime context the default factory forwards
            to the constructor: it builds ``cls(**params, **those)``.
        param_aliases:
            Short-hand parameter spellings (paper notation) mapped to field
            names, e.g. ``{"cubic_c": "gamma"}``.
        factory:
            Custom builder ``(explicit_params, context) -> instance``, for when
            the params do not splat into the constructor as they are.
        requires:
            Context attributes that must be non-None to build the entry
            (e.g. the oracle's ground-truth callback).
        validate:
            Optional hook raising ``ValueError`` for invalid *values* at spec
            parse time (unknown names/keys are always rejected).  It receives
            every field: the defaults overlaid with the explicit overrides.
        """
        if not dataclasses.is_dataclass(params):
            raise TypeError(f"params must be a dataclass, got {params!r}")

        def decorator(cls: type) -> type:
            resolved_aliases = dict(param_aliases or {})
            field_names = {f.name for f in dataclasses.fields(params)}
            bad = sorted(set(resolved_aliases.values()) - field_names)
            if bad:
                raise ValueError(f"param_aliases target unknown fields {bad} on {params.__name__}")

            def default_factory(explicit: Mapping[str, Any], context: Any) -> Any:
                kwargs = dict(explicit)
                for arg in context_args:
                    kwargs[arg] = getattr(context, arg)
                return cls(**kwargs)

            self.add(
                RegistryEntry(
                    name=name,
                    kind=kind,
                    aliases=tuple(aliases),
                    params_cls=params,
                    description=description,
                    factory=factory or default_factory,
                    param_aliases=resolved_aliases,
                    requires=tuple(requires),
                    validate=validate,
                )
            )
            return cls

        return decorator

    def names(self, kind: str | None = None) -> tuple[str, ...]:
        """Registered canonical names (optionally of one kind), in registration order."""
        return tuple(name for name, entry in self._entries.items() if kind is None or entry.kind == kind)

    def get(self, name: str) -> RegistryEntry:
        """The registration for a *canonical* name (KeyError when absent)."""
        return self._entries[name]

    def resolve(self, name: str, kind: str | None = None) -> RegistryEntry:
        """Look an entry up by name or alias, case-insensitively.

        ``kind`` narrows the lookup to one sub-family: a valid name of the
        wrong kind is rejected with a message naming both kinds.  Unknown
        names raise ``ValueError`` listing the valid names plus a
        closest-match suggestion (from the same kind) when one is plausible.
        """
        if not isinstance(name, str):
            raise TypeError(f"{self.noun} name must be a string, got {type(name).__name__}")
        canonical = self._lookup.get(_normalize(name))
        entry = None if canonical is None else self._entries[canonical]
        if entry is not None and (kind is None or entry.kind == kind):
            return entry
        wanted = "names" if kind is None else f"{self.kinds[kind]}s"
        valid = ", ".join(self.names(kind)) or "(none)"
        if entry is not None and kind is not None:  # a valid name, of another kind
            raise ValueError(
                f"{self.noun} {entry.name!r} is a {self.kinds[entry.kind]}, not a "
                f"{self.kinds[kind]}; valid {wanted}: {valid}"
            )
        pool = sorted(
            token
            for token, owner in self._lookup.items()
            if kind is None or self._entries[owner].kind == kind
        )
        close = difflib.get_close_matches(_normalize(name), pool, n=1)
        hint = f"; did you mean {self._lookup[close[0]]!r}?" if close else ""
        raise ValueError(f"unknown {self.noun} {name!r}; valid {wanted}: {valid}{hint}")


@dataclass(frozen=True)
class Spec:
    """A validated, canonical ``(name, parameters)`` pair of one registry.

    Construct via :meth:`parse` (or :meth:`of`); the constructor itself does
    not validate, so hand-built instances bypass canonicalization.
    ``params`` is a sorted tuple of ``(field name, value)`` pairs holding
    only the *explicit, non-default* overrides.  Subclasses set ``registry``.
    """

    name: str
    params: tuple[tuple[str, Any], ...] = ()

    registry: ClassVar[Registry]

    @classmethod
    def parse(cls: type[SpecT], value: "str | Mapping[str, Any] | Spec", kind: str | None = None) -> SpecT:
        """Parse and canonicalize a reference of any accepted form.

        Accepts a spec string (``"c3"``, ``"c3:cubic_c=4e-4,b=3"``), a
        mapping (``{"name": "c3", "params": {"beta": 0.5}}``) or a spec of
        this class.  ``kind`` restricts the lookup to one sub-family so a
        config field can reject a valid name of the wrong kind precisely.
        """
        noun = cls.registry.noun
        if isinstance(value, cls):
            return cls.of(value.name, value.params_dict, kind)
        if isinstance(value, str):
            name, params = parse_spec_string(value, label=f"{noun} spec")
            return cls.of(name, params, kind)
        if isinstance(value, Mapping):
            unknown = sorted(set(value) - {"name", "params"})
            if unknown:
                raise ValueError(
                    f"unknown keys {unknown} in {noun} mapping; expected {{'name': ..., 'params': {{...}}}}"
                )
            if "name" not in value:
                raise ValueError(f"{noun} mapping needs a 'name' key")
            return cls.of(value["name"], dict(value.get("params") or {}), kind)
        raise TypeError(
            f"cannot parse a {noun} from {type(value).__name__}; expected str, mapping, or {cls.__name__}"
        )

    @classmethod
    def of(
        cls: type[SpecT], name: str, params: Mapping[str, Any] | None = None, kind: str | None = None
    ) -> SpecT:
        """Build a canonical spec from a name and explicit params.

        The name becomes the registry's canonical name (``"c3"`` → ``"C3"``),
        param aliases are expanded (``cubic_c`` → ``gamma``), unknown keys are
        rejected with a did-you-mean suggestion, values are coerced to the
        annotated field types, and params equal to the registered default
        are dropped — so every spelling of the same configuration normalizes
        to the same spec, canonical string and digest (and a bare name stays
        a bare name).
        """
        entry = cls.registry.resolve(name, kind)
        resolved = resolve_param_overrides(
            entry.params_cls,
            dict(params or {}),
            subject=f"{cls.registry.noun} {entry.name}",
            param_aliases=entry.param_aliases,
            validate=entry.validate,
        )
        return cls(name=entry.name, params=tuple(sorted(resolved.items())))

    @property
    def entry(self) -> RegistryEntry:
        """This spec's registration."""
        return self.registry.resolve(self.name)

    @property
    def params_dict(self) -> dict[str, Any]:
        """The explicit overrides as a plain dict."""
        return dict(self.params)

    def canonical(self) -> str:
        """The canonical string form; ``parse(spec.canonical()) == spec`` always holds."""
        if not self.params:
            return self.name
        return f"{self.name}:{format_params(self.params)}"

    def digest(self) -> str:
        """A stable content digest of the canonical spec.

        Two references to the same configuration — whatever their spelling —
        share a digest; any parameter change produces a new one.  This is
        what keeps runner cache keys and golden digests deterministic across
        refactors of the spec grammar.
        """
        return spec_digest(self.name, self.params_dict)

    def __str__(self) -> str:
        return self.canonical()
