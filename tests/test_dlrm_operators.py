"""Tests for repro.dlrm.operators (the SLS functional reference)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dlrm.operators import (
    SLSRequest,
    dequantize_rowwise_8bit,
    quantize_rowwise_8bit,
    sparse_lengths_mean,
    sparse_lengths_sum,
    sparse_lengths_sum_8bit,
    sparse_lengths_weighted_sum,
)


@pytest.fixture
def table():
    rng = np.random.default_rng(0)
    return rng.standard_normal((100, 8)).astype(np.float32)


class TestSLSRequest:
    def test_valid(self):
        request = SLSRequest(table_id=0, indices=[1, 2, 3, 4],
                             lengths=[2, 2])
        assert request.batch_size == 2
        assert request.total_lookups == 4

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SLSRequest(table_id=0, indices=[1, 2, 3], lengths=[2, 2])

    def test_zero_length_pooling_rejected(self):
        with pytest.raises(ValueError):
            SLSRequest(table_id=0, indices=[1, 2], lengths=[2, 0])

    def test_weights_shape_checked(self):
        with pytest.raises(ValueError):
            SLSRequest(table_id=0, indices=[1, 2], lengths=[2],
                       weights=[1.0])

    @pytest.mark.parametrize("indices, message", [
        # -1 used to become Daddr 0xFFFFFFFF and read the table's last row.
        ([3, -1, 2], r"indices\[1\]=-1"),
        # 1.7 used to be truncated to row 1.
        ([1.7, 2.2, 3.0], r"indices\[0\]=1.7"),
        ([1.0, 2.0, float("nan")], r"indices\[2\]=nan"),
    ], ids=["negative", "fractional", "nan"])
    def test_bad_indices_rejected(self, indices, message):
        with pytest.raises(ValueError, match="non-negative integers, got "
                           + message):
            SLSRequest(table_id=0, indices=indices, lengths=[3])

    def test_integral_float_indices_accepted(self):
        request = SLSRequest(table_id=0, indices=[1.0, 2.0], lengths=[2])
        assert request.indices.dtype == np.int64
        assert request.indices.tolist() == [1, 2]


class TestSparseLengthsSum:
    def test_matches_manual(self, table):
        indices = np.array([0, 1, 2, 3, 4, 5])
        lengths = np.array([2, 2, 2])
        output = sparse_lengths_sum(table, indices, lengths)
        assert output.shape == (3, 8)
        np.testing.assert_allclose(output[0], table[0] + table[1], rtol=1e-5)
        np.testing.assert_allclose(output[2], table[4] + table[5], rtol=1e-5)

    def test_single_lookup_pooling(self, table):
        output = sparse_lengths_sum(table, [7], [1])
        np.testing.assert_allclose(output[0], table[7], rtol=1e-6)

    def test_repeated_index(self, table):
        output = sparse_lengths_sum(table, [3, 3, 3], [3])
        np.testing.assert_allclose(output[0], 3 * table[3], rtol=1e-5)

    def test_mean(self, table):
        output = sparse_lengths_mean(table, [0, 1, 2, 3], [4])
        np.testing.assert_allclose(output[0], table[:4].mean(axis=0),
                                   rtol=1e-5)

    def test_weighted_sum(self, table):
        weights = np.array([0.5, 2.0], dtype=np.float32)
        output = sparse_lengths_weighted_sum(table, [1, 2], [2], weights)
        np.testing.assert_allclose(output[0], 0.5 * table[1] + 2 * table[2],
                                   rtol=1e-5)

    def test_weighted_sum_with_unit_weights_equals_sum(self, table):
        indices = [0, 5, 9, 2]
        lengths = [2, 2]
        plain = sparse_lengths_sum(table, indices, lengths)
        weighted = sparse_lengths_weighted_sum(table, indices, lengths,
                                               np.ones(4, dtype=np.float32))
        np.testing.assert_allclose(plain, weighted, rtol=1e-6)

    def test_rejects_mismatched_lengths(self, table):
        with pytest.raises(ValueError):
            sparse_lengths_sum(table, [0, 1], [3])

    def test_rejects_1d_table(self):
        with pytest.raises(ValueError):
            sparse_lengths_sum(np.zeros(10), [0], [1])


class TestQuantized:
    def test_roundtrip_error_small(self, table):
        quantised, scale, bias = quantize_rowwise_8bit(table)
        restored = dequantize_rowwise_8bit(quantised, scale, bias)
        max_error = np.abs(restored - table).max()
        row_span = (table.max(axis=1) - table.min(axis=1)).max()
        assert max_error <= row_span / 255.0 + 1e-6

    def test_quantised_dtype(self, table):
        quantised, scale, bias = quantize_rowwise_8bit(table)
        assert quantised.dtype == np.uint8
        assert scale.dtype == np.float32

    def test_constant_row(self):
        table = np.full((2, 4), 3.5, dtype=np.float32)
        quantised, scale, bias = quantize_rowwise_8bit(table)
        restored = dequantize_rowwise_8bit(quantised, scale, bias)
        np.testing.assert_allclose(restored, table, atol=1e-6)

    def test_sls_8bit_close_to_fp32(self, table):
        quantised, scale, bias = quantize_rowwise_8bit(table)
        indices = np.array([0, 1, 2, 3, 4, 5])
        lengths = np.array([3, 3])
        exact = sparse_lengths_sum(table, indices, lengths)
        approx = sparse_lengths_sum_8bit(quantised, scale, bias, indices,
                                         lengths)
        np.testing.assert_allclose(approx, exact, atol=0.1)

    def test_sls_8bit_weighted(self, table):
        quantised, scale, bias = quantize_rowwise_8bit(table)
        weights = np.array([2.0, 1.0], dtype=np.float32)
        exact = sparse_lengths_weighted_sum(table, [1, 2], [2], weights)
        approx = sparse_lengths_sum_8bit(quantised, scale, bias, [1, 2], [2],
                                         weights)
        np.testing.assert_allclose(approx, exact, atol=0.1)


class TestProperties:
    @given(st.integers(min_value=1, max_value=30),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_sum_of_poolings_equals_total(self, rows, dim, batch, seed):
        rng = np.random.default_rng(seed)
        table = rng.standard_normal((rows, dim)).astype(np.float32)
        lengths = rng.integers(1, 5, size=batch)
        indices = rng.integers(0, rows, size=lengths.sum())
        output = sparse_lengths_sum(table, indices, lengths)
        # Summing all pooled outputs equals summing all gathered rows.
        np.testing.assert_allclose(output.sum(axis=0),
                                   table[indices].sum(axis=0), rtol=1e-4,
                                   atol=1e-4)

    @given(st.integers(min_value=2, max_value=20),
           st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_mean_bounded_by_rows(self, rows, dim, seed):
        rng = np.random.default_rng(seed)
        table = rng.standard_normal((rows, dim)).astype(np.float32)
        indices = rng.integers(0, rows, size=6)
        output = sparse_lengths_mean(table, indices, [6])
        assert (output[0] <= table[indices].max(axis=0) + 1e-5).all()
        assert (output[0] >= table[indices].min(axis=0) - 1e-5).all()

    @given(st.integers(min_value=1, max_value=50),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_quantisation_error_bounded(self, rows, seed):
        rng = np.random.default_rng(seed)
        table = rng.uniform(-10, 10, size=(rows, 16)).astype(np.float32)
        quantised, scale, bias = quantize_rowwise_8bit(table)
        restored = dequantize_rowwise_8bit(quantised, scale, bias)
        per_row_span = table.max(axis=1) - table.min(axis=1)
        per_row_error = np.abs(restored - table).max(axis=1)
        assert (per_row_error <= per_row_span / 255.0 + 1e-5).all()
