"""Sweep specifications: a cartesian parameter grid replicated across seeds.

A :class:`SweepSpec` names a base :class:`~repro.simulator.SimulationConfig`,
a grid of field overrides (``{"strategy": ("C3", "LOR"), "utilization":
(0.45, 0.7), "scenario": ("baseline", "gc-storm")}``) and a tuple of seeds.
Scenario names (and ``scenario_params``) are ordinary config fields, so
fault-injection scenarios sweep, hash and cache exactly like any other
dimension — changing only the scenario produces a different trial key.
The same holds for ``metrics_mode``: ``{"metrics_mode": ("exact",
"streaming")}`` grids the collector mode, and exact/streaming trials of an
otherwise identical config hash to different cache keys.  Expanding the spec yields one
:class:`TrialSpec` per (grid point × seed), each with a fully resolved
config and a content hash that keys the result cache: any change to any
config field — including the seed — produces a different key, while an
identical spec re-hashes to identical keys and is served from cache.

Seeding is deterministic and transparent: trial ``(point, seed)`` simply
runs the resolved config with ``config.seed = seed``.  Using the *same*
seed set for every grid point is intentional — common random numbers make
cross-strategy comparisons sharper at equal replicate counts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..controls import ControlSpec
from ..simulator import DemandSkew, SimulationConfig
from ..strategies import StrategySpec
from ..strategies.specbase import Spec

__all__ = [
    "SweepSpec",
    "TrialSpec",
    "canonical_json",
    "config_to_payload",
    "content_hash",
    "payload_to_config",
    "seed_range",
]

#: SimulationConfig field names a grid may override (everything but ``seed``,
#: which is owned by the spec's ``seeds`` axis).
_CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(SimulationConfig))

#: Retired SimulationConfig fields at the one value every payload ever held.
#: Payloads keep writing them, so cache keys and pinned payload hashes from
#: before the fields went stay byte-identical.
_RETIRED_FIELDS = {
    "arrival_rate_per_ms": None,
    "c3_config": None,
    "extra": {},
    "load_window_ms": 100.0,
    "record_rate_history": False,
}


def _jsonify(value: Any) -> Any:
    """Convert ``value`` into a JSON-serializable equivalent.

    Dataclasses (``DemandSkew``, ``C3Config``) become dicts, tuples become
    lists; a :class:`~repro.strategies.specbase.Spec` (``StrategySpec``,
    ``ControlSpec``) becomes its canonical string (the same
    form ``SimulationConfig`` stores, so both spellings hash identically);
    anything json can't express raises so cache keys never silently
    depend on ``repr`` formatting.
    """
    if isinstance(value, Spec):
        return value.canonical()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonify(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalars
        return _jsonify(value.item())
    raise TypeError(f"cannot serialize {value!r} ({type(value).__name__}) into a sweep payload")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, jsonified values."""
    return json.dumps(_jsonify(obj), sort_keys=True, separators=(",", ":"))


def content_hash(obj: Any) -> str:
    """sha256 over the canonical JSON of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def config_to_payload(config: SimulationConfig) -> dict:
    """A JSON-serializable dict capturing every field of ``config``.

    The *default* control specs — the ``"binary"`` failure detector,
    ``hedging=None`` and the ``"v1"`` RNG regime — are omitted from the
    payload, so configs predating those axes keep byte-identical payloads
    (and therefore cache keys and pinned payload hashes);
    :func:`payload_to_config` restores the defaults on reconstruction.
    Non-default values are included and produce distinct cache keys.
    ``kernel`` is always omitted: the runner executes every trial on the
    batched kernel, so the field cannot tell two results apart.
    """
    payload = {f.name: _jsonify(getattr(config, f.name)) for f in dataclasses.fields(config)}
    payload.update(_jsonify(_RETIRED_FIELDS))
    if payload.get("failure_detector") == "binary":
        del payload["failure_detector"]
    if payload.get("hedging") is None:
        del payload["hedging"]
    del payload["kernel"]
    # rng="block" is a different digest domain, so it must cache separately;
    # the "v1" default is omitted to keep pre-existing cache keys intact.
    if payload.get("rng") == "v1":
        del payload["rng"]
    return payload


def payload_to_config(payload: Mapping[str, Any]) -> SimulationConfig:
    """Rebuild a :class:`SimulationConfig` from :func:`config_to_payload` output.

    This is what pool workers use: payloads cross the process boundary as
    plain dicts, so the worker owns the reconstruction.  The retired fields
    are dropped; a payload holding any other value for one raises
    ``ValueError``, since no config can reproduce it.
    """
    params = dict(payload)
    for name, default in _RETIRED_FIELDS.items():
        if params.pop(name, default) != default:
            raise ValueError(f"payload sets the retired config field {name!r}")
    if params.get("demand_skew") is not None:
        params["demand_skew"] = DemandSkew(**params["demand_skew"])
    for name in ("num_servers", "replication_factor", "num_clients", "num_requests",
                 "server_concurrency", "seed", "record_size"):
        if params.get(name) is not None:
            params[name] = int(params[name])
    return SimulationConfig(**params)


def seed_range(num_seeds: int, base_seed: int = 0) -> tuple[int, ...]:
    """The deterministic seed set ``base_seed .. base_seed + num_seeds - 1``."""
    if num_seeds < 1:
        raise ValueError(f"num_seeds must be >= 1, got {num_seeds}")
    if base_seed < 0:
        # numpy's default_rng rejects negative seeds, but only deep inside a
        # (possibly pooled) trial; fail here with an actionable message.
        raise ValueError(f"base_seed must be >= 0, got {base_seed}")
    return tuple(range(base_seed, base_seed + num_seeds))


@dataclass(frozen=True)
class TrialSpec:
    """One fully resolved trial: a grid point × one seed.

    Attributes
    ----------
    index:
        Position in the spec's expansion order (grid-point major, seed minor);
        used to restore deterministic result ordering after parallel execution.
    params:
        The grid overrides of this trial's grid point, jsonified.
    seed:
        The trial's seed (already applied to ``config``).
    config:
        The resolved simulation configuration.
    """

    index: int
    params: dict
    seed: int
    config: SimulationConfig

    @property
    def key(self) -> str:
        """Content hash of the resolved config — the trial's cache key."""
        return content_hash(config_to_payload(self.config))


@dataclass(frozen=True)
class SweepSpec:
    """A cartesian parameter grid × N seeds over a base config.

    ``grid`` maps :class:`SimulationConfig` field names to the values to
    sweep; insertion order defines expansion order (first key is the
    outermost loop).  ``seeds`` replicates every grid point.
    """

    base: SimulationConfig = field(default_factory=SimulationConfig)
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    seeds: Sequence[int] = (0,)

    def __post_init__(self) -> None:
        for name, values in dict(self.grid).items():
            if isinstance(values, (str, bytes)):
                raise ValueError(
                    f"grid dimension {name!r} must be a sequence of values, not a bare "
                    f"string ({values!r}); write {name!r}: ({values!r},) for a single value"
                )
        normalized_grid = {str(k): tuple(v) for k, v in dict(self.grid).items()}
        if "strategy" in normalized_grid:
            # Canonicalize strategy specs up front: grid values may be bare
            # names, spec strings, mappings, or StrategySpec objects, and
            # unknown strategies/params should fail at spec construction
            # (with the registry's did-you-mean error), not mid-sweep.
            normalized_grid["strategy"] = tuple(
                StrategySpec.parse(value).canonical()
                for value in normalized_grid["strategy"]
            )
        # Control axes canonicalize the same way (a hedging axis may include
        # None, meaning "no hedging" for that grid point).
        if "failure_detector" in normalized_grid:
            normalized_grid["failure_detector"] = tuple(
                ControlSpec.parse(value, kind="detector").canonical()
                for value in normalized_grid["failure_detector"]
            )
        if "hedging" in normalized_grid:
            normalized_grid["hedging"] = tuple(
                None if value is None else ControlSpec.parse(value, kind="hedge").canonical()
                for value in normalized_grid["hedging"]
            )
        for name, values in normalized_grid.items():
            if name not in _CONFIG_FIELDS:
                raise ValueError(
                    f"unknown SimulationConfig field {name!r} in sweep grid; "
                    f"valid fields: {', '.join(sorted(_CONFIG_FIELDS))}"
                )
            if name == "seed":
                raise ValueError("sweep the 'seeds' axis, not a 'seed' grid dimension")
            if not values:
                raise ValueError(f"grid dimension {name!r} has no values")
        seeds = tuple(int(s) for s in self.seeds)
        if not seeds:
            raise ValueError("a sweep needs at least one seed")
        if len(set(seeds)) != len(seeds):
            raise ValueError(f"duplicate seeds in {seeds}")
        object.__setattr__(self, "grid", normalized_grid)
        object.__setattr__(self, "seeds", seeds)

    # ------------------------------------------------------------- expansion
    def grid_points(self) -> list[dict]:
        """Every grid point as an override dict, in expansion order."""
        if not self.grid:
            return [{}]
        names = list(self.grid)
        return [
            dict(zip(names, combo))
            for combo in itertools.product(*(self.grid[name] for name in names))
        ]

    def trials(self) -> list[TrialSpec]:
        """Expand into resolved trials: grid-point major, seed minor."""
        trials: list[TrialSpec] = []
        for point in self.grid_points():
            for seed in self.seeds:
                trials.append(
                    TrialSpec(
                        index=len(trials),
                        params={k: _jsonify(v) for k, v in point.items()},
                        seed=seed,
                        config=self.base.copy(**point, seed=seed),
                    )
                )
        return trials

    @property
    def num_grid_points(self) -> int:
        """Number of distinct configurations (grid points)."""
        points = 1
        for values in self.grid.values():
            points *= len(values)
        return points

    @property
    def num_trials(self) -> int:
        """Total trials: grid points × seeds."""
        return self.num_grid_points * len(self.seeds)

    @property
    def key(self) -> str:
        """Content hash of the whole spec (base config + grid + seeds)."""
        return content_hash(
            {
                "base": config_to_payload(self.base),
                "grid": {k: list(v) for k, v in self.grid.items()},
                "seeds": list(self.seeds),
            }
        )

    def describe(self) -> str:
        """One-line human description of the sweep's shape."""
        dims = " × ".join(f"{len(v)} {k}" for k, v in self.grid.items()) or "1 config"
        return f"{dims} × {len(self.seeds)} seeds = {self.num_trials} trials"
