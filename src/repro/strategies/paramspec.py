"""Shared spec-grammar machinery for named, parameterized registries.

The strategy registry (PR 5) introduced a small language for addressing one
(name, parameters) point in a design space — ``NAME[:key=value,...]`` with
case-insensitive names, JSON-scalar values, param aliases, type coercion
against a frozen param dataclass, and default-value dropping so every
spelling of the same configuration normalizes identically.  The control
registry (:mod:`repro.controls`) speaks the same language, so the grammar
and coercion rules live here, parameterized by a ``subject`` label
("strategy C3", "control phi") purely for error messages.  The registry and
spec classes both families instantiate are built on it in
:mod:`repro.strategies.specbase`.

Everything in this module is pure string/type manipulation: no registry
state, no simulator imports.
"""

from __future__ import annotations

import dataclasses
import difflib
import functools
import hashlib
import json
import math
import types
import typing
from typing import Any, Callable, Collection, Mapping, Sequence

__all__ = [
    "accepted_types",
    "coerce_value",
    "config_params",
    "describe_types",
    "format_params",
    "format_value",
    "parse_spec_string",
    "parse_value",
    "resolve_param_overrides",
    "spec_digest",
]

#: Optional early validation hook over the full parameter set: the registered
#: defaults overlaid with the explicit (alias-resolved) overrides, so a
#: constraint between two params sees both even when only one is set.
Validator = Callable[[Mapping[str, Any]], None]


def parse_value(raw: str) -> Any:
    """A spec-string parameter value: JSON scalar, falling back to string."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def format_value(value: Any) -> str:
    """Format one canonical param value so that parsing round-trips it."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)  # shortest repr; json.loads round-trips it exactly
    if isinstance(value, int):
        return str(value)
    text = str(value)
    if any(sep in text for sep in (",", "=", ":")) or text != text.strip():
        raise ValueError(f"cannot format parameter value {value!r} in spec syntax")
    return text


def format_params(params: Mapping[str, Any] | tuple[tuple[str, Any], ...]) -> str:
    """Render ``key=value`` pairs in canonical spec syntax."""
    items = params.items() if isinstance(params, Mapping) else params
    return ",".join(f"{key}={format_value(value)}" for key, value in items)


def parse_spec_string(text: str, label: str = "spec") -> tuple[str, dict[str, Any]]:
    """Split ``NAME[:key=value,...]`` into a name and raw params.

    ``label`` names the spec family in error messages ("strategy spec",
    "control spec").
    """
    name, sep, param_text = text.partition(":")
    if not name.strip():
        raise ValueError(f"{label} {text!r} has an empty name")
    if not sep:
        return name, {}
    params: dict[str, Any] = {}
    if not param_text.strip():
        raise ValueError(f"{label} {text!r} has a ':' but no parameters")
    for pair in param_text.split(","):
        key, eq, raw = pair.partition("=")
        key = key.strip()
        if not eq or not key:
            raise ValueError(
                f"malformed parameter {pair.strip()!r} in {label} {text!r}; "
                f"expected KEY=VALUE"
            )
        if key in params:
            raise ValueError(f"parameter {key!r} repeated in {label} {text!r}")
        params[key] = parse_value(raw.strip())
    return name, params


def spec_digest(name: str, params: Mapping[str, Any]) -> str:
    """A stable sha256 content digest over a canonical (name, params) pair."""
    payload = json.dumps(
        {"name": name, "params": dict(params)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Type coercion against a frozen param dataclass.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _type_hints(params_cls: type) -> dict[str, Any]:
    # Evaluated lazily (modules use `from __future__ import annotations`),
    # once per class: every spec parse asks, and re-evaluating the string
    # annotations cost ~2 ms per sweep trial.  Callers only read the dict.
    return typing.get_type_hints(params_cls)


def accepted_types(hint: Any) -> tuple[set[type], bool]:
    """The concrete types a field hint accepts, plus whether None is allowed."""
    if hint is type(None):
        return set(), True
    origin = typing.get_origin(hint)
    if origin is typing.Union or origin is types.UnionType:
        accepted: set[type] = set()
        allows_none = False
        for arg in typing.get_args(hint):
            arg_types, arg_none = accepted_types(arg)
            accepted |= arg_types
            allows_none = allows_none or arg_none
        return accepted, allows_none
    return {hint}, False


def describe_types(accepted: set[type]) -> str:
    return " | ".join(sorted(t.__name__ if isinstance(t, type) else str(t) for t in accepted)) or "nothing"


def coerce_value(subject: str, field_name: str, value: Any, hint: Any) -> Any:
    """Coerce ``value`` to the field's annotated type or raise ``ValueError``.

    ``subject`` names the owner in error messages, e.g. ``"strategy C3"``.
    """
    accepted, allows_none = accepted_types(hint)
    if value is None:
        if allows_none:
            return None
        raise ValueError(f"parameter {field_name!r} of {subject} does not accept null")
    if bool in accepted and isinstance(value, bool):
        return value
    if isinstance(value, bool):  # bool is an int subclass; keep it out of numbers
        raise ValueError(
            f"parameter {field_name!r} of {subject} expects "
            f"{describe_types(accepted)}, got a boolean"
        )
    if float in accepted and isinstance(value, (int, float)):
        # Non-finite values would break the canonical-string round trip
        # (repr(nan)/repr(inf) are not JSON) and make no sense as knobs.
        if not math.isfinite(value):
            raise ValueError(
                f"parameter {field_name!r} of {subject} must be finite, got {value!r}"
            )
        return float(value)
    if int in accepted and isinstance(value, int):
        return int(value)
    if int in accepted and isinstance(value, float) and value.is_integer():
        return int(value)
    if str in accepted and isinstance(value, str):
        return value
    # The one container type: a tuple of ints (a scenario's target servers).
    ints = isinstance(value, (list, tuple)) and all(type(v) is int for v in value)
    if tuple[int, ...] in accepted and ints:
        return tuple(value)
    raise ValueError(
        f"parameter {field_name!r} of {subject} expects "
        f"{describe_types(accepted)}, got {value!r}"
    )


def resolve_param_overrides(
    params_cls: type,
    params: Mapping[str, Any],
    *,
    subject: str,
    param_aliases: Mapping[str, str] | None = None,
    validate: Validator | None = None,
) -> dict[str, Any]:
    """Validate and normalize explicit params against a param dataclass.

    Aliases are expanded to canonical field names, unknown keys are rejected
    with a did-you-mean suggestion, values are coerced to the annotated field
    types, and entries equal to the registered default are dropped — so two
    spellings of the same configuration normalize identically (and a bare
    name stays a bare name).
    """
    aliases = dict(param_aliases or {})
    fields_by_name = {f.name: f for f in dataclasses.fields(params_cls)}
    hints = _type_hints(params_cls)
    defaults_instance = params_cls()
    defaults = {name: getattr(defaults_instance, name) for name in fields_by_name}
    valid = sorted(set(fields_by_name) | set(aliases))
    resolved: dict[str, Any] = {}
    for key, raw in params.items():
        field_name = aliases.get(key, key)
        if field_name not in fields_by_name:
            close = difflib.get_close_matches(key, valid, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ValueError(
                f"unknown parameter {key!r} for {subject}"
                f" (valid parameters: {', '.join(valid) or '(none)'}){hint}"
            )
        if field_name in resolved:
            raise ValueError(
                f"parameter {field_name!r} of {subject} given more than once "
                f"(an alias and its target, or a repeated key)"
            )
        resolved[field_name] = coerce_value(subject, field_name, raw, hints[field_name])
    # Canonical form: a param explicitly set to its registered default is
    # indistinguishable from an unset param (both mean "the paper's value").
    normalized = {
        name: value for name, value in resolved.items() if value != defaults[name]
    }
    if validate is not None:
        validate({**defaults, **normalized})
    return normalized


def config_params(
    cls_name: str,
    config_cls: type,
    names: Sequence[str] | None = None,
    *,
    derived: Collection[str] = (),
    module: str,
    doc: str,
) -> type:
    """A frozen param dataclass over fields of the config dataclass ``config_cls``.

    Each of ``names`` (default: every field, in declaration order) keeps the
    config field's name, type and default, so the knobs are declared once,
    on the config.  A field in ``derived`` defaults to ``None`` instead,
    meaning "derived from the deployment", and its type admits ``None``.
    """
    hints = typing.get_type_hints(config_cls)
    defaults = {f.name: f.default for f in dataclasses.fields(config_cls)}
    spec = [
        (name, hints[name] | None, dataclasses.field(default=None))
        if name in derived
        else (name, hints[name], dataclasses.field(default=defaults[name]))
        for name in (defaults if names is None else names)
    ]
    cls = dataclasses.make_dataclass(cls_name, spec, frozen=True, slots=True)
    cls.__module__ = module
    cls.__doc__ = doc
    return cls
