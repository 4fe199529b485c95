"""Unit tests for sweep specs (expansion, hashing) and the trial cache."""

import pytest

from repro.runner import (
    SweepSpec,
    TrialCache,
    canonical_json,
    config_to_payload,
    content_hash,
    payload_to_config,
    seed_range,
)
from repro.simulator import DemandSkew, SimulationConfig


class TestSpecExpansion:
    def test_trials_are_grid_times_seeds(self):
        spec = SweepSpec(
            base=SimulationConfig(num_servers=9, num_clients=10, num_requests=100),
            grid={"strategy": ("C3", "LOR"), "utilization": (0.5, 0.6, 0.7)},
            seeds=(0, 1),
        )
        trials = spec.trials()
        assert spec.num_grid_points == 6
        assert spec.num_trials == len(trials) == 12
        assert [t.index for t in trials] == list(range(12))
        # Grid-point major, seed minor; insertion order of grid keys is outermost.
        assert trials[0].params == {"strategy": "C3", "utilization": 0.5}
        assert trials[0].seed == 0 and trials[1].seed == 1
        assert trials[2].params == {"strategy": "C3", "utilization": 0.6}
        assert trials[-1].params == {"strategy": "LOR", "utilization": 0.7}
        # Overrides and seed are applied to the resolved config.
        assert trials[3].config.utilization == 0.6
        assert trials[3].config.seed == 1

    def test_empty_grid_is_one_point_per_seed(self):
        spec = SweepSpec(base=SimulationConfig(), seeds=(7, 8, 9))
        assert spec.num_trials == 3
        assert [t.seed for t in spec.trials()] == [7, 8, 9]

    def test_unknown_grid_field_rejected(self):
        with pytest.raises(ValueError, match="unknown SimulationConfig field"):
            SweepSpec(grid={"not_a_field": (1,)})

    def test_seed_grid_dimension_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            SweepSpec(grid={"seed": (1, 2)})

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SweepSpec(seeds=(1, 1))

    def test_empty_dimension_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            SweepSpec(grid={"strategy": ()})

    def test_bare_string_dimension_rejected(self):
        # tuple("C3") would silently explode into ("C", "3") sweep points.
        with pytest.raises(ValueError, match="bare\\s+string"):
            SweepSpec(grid={"strategy": "C3"})

    def test_seed_range(self):
        assert seed_range(4) == (0, 1, 2, 3)
        assert seed_range(2, base_seed=10) == (10, 11)
        with pytest.raises(ValueError):
            seed_range(0)

    def test_describe(self):
        spec = SweepSpec(grid={"strategy": ("C3", "LOR")}, seeds=(0, 1, 2))
        assert spec.describe() == "2 strategy × 3 seeds = 6 trials"


class TestHashing:
    def test_trial_key_is_stable_and_seed_sensitive(self):
        spec = SweepSpec(grid={"strategy": ("C3",)}, seeds=(0, 1))
        t0, t1 = spec.trials()
        assert t0.key == SweepSpec(grid={"strategy": ("C3",)}, seeds=(0, 1)).trials()[0].key
        assert t0.key != t1.key  # the seed is part of the content hash

    def test_spec_key_changes_with_any_axis(self):
        base = SweepSpec(grid={"strategy": ("C3",)}, seeds=(0,))
        assert base.key == SweepSpec(grid={"strategy": ("C3",)}, seeds=(0,)).key
        assert base.key != SweepSpec(grid={"strategy": ("LOR",)}, seeds=(0,)).key
        assert base.key != SweepSpec(grid={"strategy": ("C3",)}, seeds=(1,)).key
        assert base.key != SweepSpec(
            base=SimulationConfig(num_requests=1), grid={"strategy": ("C3",)}, seeds=(0,)
        ).key

    def test_config_payload_roundtrip(self):
        config = SimulationConfig(
            num_servers=9,
            num_requests=123,
            demand_skew=DemandSkew(client_fraction=0.2, demand_fraction=0.8),
            utilization=0.55,
            seed=42,
        )
        rebuilt = payload_to_config(config_to_payload(config))
        assert rebuilt == config
        assert content_hash(config_to_payload(rebuilt)) == content_hash(config_to_payload(config))

    def test_rng_default_is_omitted_from_payload(self):
        # rng="v1" is the default digest domain: omitting it keeps every
        # pre-existing cache key (and pinned payload hash) byte-identical.
        explicit = config_to_payload(SimulationConfig(rng="v1"))
        implicit = config_to_payload(SimulationConfig())
        assert "rng" not in explicit
        assert canonical_json(explicit) == canonical_json(implicit)
        assert payload_to_config(explicit).rng == "v1"

    def test_rng_block_participates_in_cache_keys(self):
        # rng="block" is a distinct digest domain, so it must key separately.
        v1 = SimulationConfig()
        block = SimulationConfig(rng="block")
        assert config_to_payload(block)["rng"] == "block"
        assert content_hash(config_to_payload(v1)) != content_hash(config_to_payload(block))
        assert payload_to_config(config_to_payload(block)) == block

    #: The retired SimulationConfig fields at the values every payload held.
    RETIRED = {
        "arrival_rate_per_ms": None,
        "c3_config": None,
        "extra": {},
        "load_window_ms": 100.0,
        "record_rate_history": False,
    }

    def test_legacy_payload_with_retired_fields_roundtrips(self):
        # Payloads keep the retired keys, so pre-retirement cache keys hold.
        config = SimulationConfig(num_servers=9, num_requests=123, seed=4)
        payload = config_to_payload(config)
        assert {key: payload[key] for key in self.RETIRED} == self.RETIRED
        assert payload_to_config(payload) == config
        assert payload_to_config({**payload, **self.RETIRED}) == config

    def test_retired_field_off_its_default_raises(self):
        payload = {**config_to_payload(SimulationConfig()), "load_window_ms": 50.0}
        with pytest.raises(ValueError, match="load_window_ms"):
            payload_to_config(payload)

    def test_canonical_json_rejects_unserializable(self):
        with pytest.raises(TypeError):
            canonical_json({"fn": lambda: None})

    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"a": 1, "b": (2, 3)}) == canonical_json({"b": [2, 3], "a": 1})


class TestTrialCache:
    def test_put_get_roundtrip(self, tmp_path):
        cache = TrialCache(tmp_path / "cache")
        key = "ab" + "0" * 62
        assert cache.get(key) is None
        assert key not in cache
        cache.put(key, {"p99": 1.5})
        assert cache.get(key) == {"p99": 1.5}
        assert key in cache
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = TrialCache(tmp_path)
        key = "cd" + "1" * 62
        cache.put(key, {"x": 1})
        cache.path_for(key).write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None

    def test_clear(self, tmp_path):
        cache = TrialCache(tmp_path)
        for i in range(3):
            cache.put(f"{i:02d}" + "f" * 62, {"i": i})
        assert cache.clear() == 3
        assert len(cache) == 0

    @pytest.mark.parametrize("foreign", ["checkpoints/x.json", "ab/notes.json", "ab/a.json"])
    def test_len_and_clear_count_only_entries(self, tmp_path, foreign):
        # Caches written by older versions still hold a sweep manifest at
        # checkpoints/<spec-key>.json; it is not an entry and must survive.
        cache = TrialCache(tmp_path)
        for i in range(4):
            cache.put(f"{i:02d}" + "e" * 62, {"i": i})
        planted = tmp_path / foreign
        planted.parent.mkdir(exist_ok=True)
        planted.write_text("{}", encoding="utf-8")
        assert len(cache) == 4
        assert cache.clear() == 4
        assert len(cache) == 0
        assert planted.is_file()
