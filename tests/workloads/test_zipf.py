"""Unit tests for the Zipfian and uniform key generators."""

import numpy as np
import pytest

from repro.workloads.zipf import UniformKeyGenerator, ZipfianGenerator


class TestZipfianGenerator:
    def test_keys_within_range(self):
        generator = ZipfianGenerator(1000, rng=np.random.default_rng(0))
        keys = generator.sample(2000)
        assert keys.min() >= 0 and keys.max() < 1000

    def test_skew_concentrates_mass_on_few_keys(self):
        generator = ZipfianGenerator(10_000, theta=0.99, rng=np.random.default_rng(1))
        keys = generator.sample(20_000)
        _, counts = np.unique(keys, return_counts=True)
        counts = np.sort(counts)[::-1]
        top_fraction = counts[: max(1, len(counts) // 10)].sum() / counts.sum()
        # With theta=0.99 the hottest ~10% of touched keys carry most traffic.
        assert top_fraction > 0.5

    def test_unscrambled_ranks_are_monotone_popular(self):
        generator = ZipfianGenerator(1000, scrambled=False, rng=np.random.default_rng(2))
        keys = generator.sample(20_000)
        unique, counts = np.unique(keys, return_counts=True)
        freq = dict(zip(unique, counts))
        assert freq.get(0, 0) > freq.get(100, 0)

    def test_scrambling_spreads_popular_keys(self):
        scrambled = ZipfianGenerator(1000, scrambled=True, rng=np.random.default_rng(3))
        keys = scrambled.sample(5000)
        unique, counts = np.unique(keys, return_counts=True)
        hottest_key = unique[np.argmax(counts)]
        assert hottest_key != 0  # rank 0 is hashed elsewhere

    def test_popularity_decreases_with_rank(self):
        generator = ZipfianGenerator(100)
        assert generator.popularity(0) > generator.popularity(10) > generator.popularity(99)

    def test_popularity_sums_to_one(self):
        generator = ZipfianGenerator(200)
        total = sum(generator.popularity(r) for r in range(200))
        assert total == pytest.approx(1.0, rel=1e-6)

    def test_single_key_space(self):
        generator = ZipfianGenerator(1, rng=np.random.default_rng(0))
        assert generator.next_key() == 0

    @pytest.mark.parametrize("num_keys", [1, 2, 3])
    def test_tiny_key_spaces_draw_valid_ranks(self, num_keys):
        generator = ZipfianGenerator(num_keys, rng=np.random.default_rng(num_keys))
        assert {generator.next_rank() for _ in range(2000)} <= set(range(num_keys))
        assert {generator.next_key() for _ in range(2000)} <= set(range(num_keys))

    def test_two_keys_follow_their_popularity(self):
        generator = ZipfianGenerator(2, scrambled=False, rng=np.random.default_rng(7))
        draws = 20_000
        counts = np.bincount([generator.next_rank() for _ in range(draws)], minlength=2)
        for rank in (0, 1):
            p = generator.popularity(rank)
            # Five binomial standard deviations of the expected count.
            assert abs(counts[rank] - draws * p) < 5 * np.sqrt(draws * p * (1 - p))

    def test_three_keys_draw_the_sequence_they_always_drew(self):
        generator = ZipfianGenerator(3, rng=np.random.default_rng(2024))
        assert [generator.next_rank() for _ in range(40)] == [
            1, 0, 0, 1, 2, 0, 0, 0, 0, 0, 1, 1, 0, 1, 0, 0, 2, 1, 1, 0,
            0, 0, 0, 2, 0, 0, 1, 0, 0, 0, 0, 0, 2, 0, 1, 0, 0, 2, 2, 0,
        ]  # fmt: skip

    def test_memoised_zeta_is_the_plain_sum_bit_for_bit(self):
        expected = float(sum(1.0 / (i**0.9) for i in range(1, 778)))
        first = ZipfianGenerator(777, theta=0.9)
        again = ZipfianGenerator(777, theta=0.9)  # served from the cache
        assert first._zetan == again._zetan == expected
        assert ZipfianGenerator(778, theta=0.9)._zetan != expected  # keyed on n

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(0)
        with pytest.raises(ValueError):
            ZipfianGenerator(10, theta=1.5)
        with pytest.raises(ValueError):
            ZipfianGenerator(10).popularity(10)
        with pytest.raises(ValueError):
            ZipfianGenerator(10).sample(-1)


class TestUniformKeyGenerator:
    def test_keys_within_range(self):
        generator = UniformKeyGenerator(50, rng=np.random.default_rng(0))
        keys = generator.sample(1000)
        assert keys.min() >= 0 and keys.max() < 50

    def test_roughly_uniform(self):
        generator = UniformKeyGenerator(10, rng=np.random.default_rng(1))
        keys = generator.sample(10_000)
        _, counts = np.unique(keys, return_counts=True)
        assert counts.min() > 800

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformKeyGenerator(0)
