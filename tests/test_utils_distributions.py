"""Tests for repro.utils.distributions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.distributions import (
    HotSetGenerator,
    UniformGenerator,
    ZipfGenerator,
)


class TestUniformGenerator:
    def test_range(self):
        generator = UniformGenerator(1000, seed=1)
        sample = generator.sample(5000)
        assert sample.min() >= 0
        assert sample.max() < 1000

    def test_deterministic_with_seed(self):
        a = UniformGenerator(1000, seed=7).sample(100)
        b = UniformGenerator(1000, seed=7).sample(100)
        np.testing.assert_array_equal(a, b)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            UniformGenerator(0)
        with pytest.raises(ValueError):
            UniformGenerator(10).sample(-1)

    def test_covers_table(self):
        generator = UniformGenerator(10, seed=0)
        sample = generator.sample(2000)
        assert set(sample.tolist()) == set(range(10))


class TestZipfGenerator:
    def test_range(self):
        generator = ZipfGenerator(500, alpha=1.1, seed=3)
        sample = generator.sample(2000)
        assert sample.min() >= 0
        assert sample.max() < 500

    def test_skew(self):
        # Without permutation, low ranks must be much more popular.
        generator = ZipfGenerator(10_000, alpha=1.2, seed=5, permute=False)
        sample = generator.sample(20_000)
        top_fraction = np.mean(sample < 100)
        assert top_fraction > 0.4

    def test_permutation_spreads_hot_rows(self):
        generator = ZipfGenerator(10_000, alpha=1.2, seed=5, permute=True)
        sample = generator.sample(20_000)
        # The most popular row is no longer necessarily row 0.
        values, counts = np.unique(sample, return_counts=True)
        assert counts.max() > 100

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            ZipfGenerator(100, alpha=0.0)


class TestHotSetGenerator:
    def test_hot_fraction_of_accesses(self):
        generator = HotSetGenerator(100_000, hot_fraction=0.001,
                                    hot_probability=0.6, seed=11)
        sample = generator.sample(30_000)
        hot_rows = set(generator._hot_rows.tolist())
        hot_hits = np.mean([int(v) in hot_rows for v in sample])
        assert 0.5 < hot_hits < 0.7

    def test_zero_hot_probability(self):
        generator = HotSetGenerator(1000, hot_probability=0.0, seed=2)
        sample = generator.sample(1000)
        assert sample.min() >= 0 and sample.max() < 1000

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            HotSetGenerator(100, hot_fraction=0.0)
        with pytest.raises(ValueError):
            HotSetGenerator(100, hot_probability=1.5)


class TestProperties:
    @given(num_rows=st.integers(min_value=1, max_value=5000),
           count=st.integers(min_value=0, max_value=2000),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_uniform_always_in_range(self, num_rows, count, seed):
        sample = UniformGenerator(num_rows, seed=seed).sample(count)
        assert len(sample) == count
        if count:
            assert sample.min() >= 0
            assert sample.max() < num_rows

    @given(num_rows=st.integers(min_value=2, max_value=2000),
           alpha=st.floats(min_value=0.5, max_value=2.0),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_zipf_always_in_range(self, num_rows, alpha, seed):
        sample = ZipfGenerator(num_rows, alpha=alpha, seed=seed).sample(500)
        assert sample.min() >= 0
        assert sample.max() < num_rows

    @given(hot_probability=st.floats(min_value=0.0, max_value=1.0),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_hotset_always_in_range(self, hot_probability, seed):
        generator = HotSetGenerator(3000, hot_fraction=0.01,
                                    hot_probability=hot_probability,
                                    seed=seed)
        sample = generator.sample(400)
        assert sample.min() >= 0
        assert sample.max() < 3000
