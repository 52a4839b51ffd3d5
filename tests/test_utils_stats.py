"""Tests for repro.utils.stats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.stats import weighted_harmonic_speedup


class TestWeightedHarmonicSpeedup:
    def test_amdahl(self):
        # Half the time sped up 2x -> overall 1.333x.
        assert weighted_harmonic_speedup([0.5, 0.5], [2.0, 1.0]) == \
            pytest.approx(4.0 / 3.0)

    def test_infinite_like_speedup_limited_by_serial_fraction(self):
        speedup = weighted_harmonic_speedup([0.8, 0.2], [1000.0, 1.0])
        assert speedup < 5.0
        assert speedup == pytest.approx(1.0 / (0.8 / 1000 + 0.2), rel=1e-6)

    def test_all_fraction_on_one_component(self):
        assert weighted_harmonic_speedup([1.0, 0.0], [3.0, 1.0]) == \
            pytest.approx(3.0)

    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            weighted_harmonic_speedup([0.6, 0.6], [1.0, 1.0])
        with pytest.raises(ValueError):
            weighted_harmonic_speedup([0.5], [1.0, 1.0])
        with pytest.raises(ValueError):
            weighted_harmonic_speedup([0.5, 0.5], [1.0, 0.0])

    @given(fraction=st.floats(min_value=0.01, max_value=0.99),
           speedup=st.floats(min_value=1.0, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_bounded_by_component_speedups(self, fraction, speedup):
        overall = weighted_harmonic_speedup(
            [fraction, 1.0 - fraction], [speedup, 1.0])
        assert 1.0 <= overall <= speedup + 1e-9
        # Amdahl bound: 1 / (1 - fraction).
        assert overall <= 1.0 / (1.0 - fraction) + 1e-9

    @pytest.mark.parametrize("speedup", [0.5, 1.0, 2.0, 7.5])
    def test_uniform_speedup_is_the_overall_speedup(self, speedup):
        assert weighted_harmonic_speedup(
            [0.2, 0.3, 0.5], [speedup] * 3) == pytest.approx(speedup)

    def test_single_component(self):
        assert weighted_harmonic_speedup([1.0], [4.0]) == \
            pytest.approx(4.0)

    def test_rejects_negative_fraction(self):
        # Sums to one, but a component cannot take negative time.
        with pytest.raises(ValueError, match="non-negative"):
            weighted_harmonic_speedup([1.5, -0.5], [2.0, 1.0])

    def test_rejects_negative_speedup(self):
        with pytest.raises(ValueError, match="positive"):
            weighted_harmonic_speedup([0.5, 0.5], [2.0, -1.0])

    def test_fraction_sum_tolerance(self):
        # Rounding noise in the fractions is accepted, a real gap is not.
        assert weighted_harmonic_speedup([0.5, 0.5 + 5e-7], [1.0, 1.0]) \
            == pytest.approx(1.0, rel=1e-6)
        with pytest.raises(ValueError, match="sum to 1.0, got 1.000100"):
            weighted_harmonic_speedup([0.5, 0.5001], [1.0, 1.0])

    @given(weights=st.lists(st.floats(min_value=0.01, max_value=1.0),
                            min_size=1, max_size=6),
           data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_order_invariant(self, weights, data):
        total = sum(weights)
        fractions = [w / total for w in weights]
        speedups = data.draw(st.lists(
            st.floats(min_value=0.1, max_value=50.0),
            min_size=len(weights), max_size=len(weights)))
        order = data.draw(st.permutations(range(len(weights))))
        assert weighted_harmonic_speedup(
            [fractions[i] for i in order], [speedups[i] for i in order]) \
            == pytest.approx(weighted_harmonic_speedup(fractions, speedups))

    @given(weights=st.lists(st.floats(min_value=0.01, max_value=1.0),
                            min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_unit_speedups_leave_time_unchanged(self, weights):
        total = sum(weights)
        assert weighted_harmonic_speedup(
            [w / total for w in weights], [1.0] * len(weights)) == \
            pytest.approx(1.0)
