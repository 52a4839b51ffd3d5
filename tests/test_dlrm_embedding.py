"""Tests for repro.dlrm.embedding."""

import numpy as np
import pytest

from repro.dlrm.embedding import EmbeddingBag, EmbeddingTable
from repro.dlrm.operators import SLSRequest, sparse_lengths_sum


class TestEmbeddingTable:
    def test_row_addresses_contiguous(self):
        table = EmbeddingTable(num_rows=100, embedding_dim=16,
                               base_address=1 << 20, lazy=True)
        assert table.row_address(0) == 1 << 20
        assert table.row_address(1) == (1 << 20) + 64
        assert table.row_address(2) == (1 << 20) + 128

    def test_row_address_bounds(self):
        table = EmbeddingTable(num_rows=10, embedding_dim=4, lazy=True)
        with pytest.raises(IndexError):
            table.row_address(10)

    def test_bytes_per_row(self):
        assert EmbeddingTable(10, 16, lazy=True).bytes_per_row == 64
        assert EmbeddingTable(10, 64, lazy=True).bytes_per_row == 256
        assert EmbeddingTable(10, 16, quantized=True,
                              lazy=True).bytes_per_row == 24

    def test_lazy_table_cannot_lookup(self):
        table = EmbeddingTable(10, 4, lazy=True)
        with pytest.raises(RuntimeError):
            table.lookup([0], [1])

    def test_lookup_matches_reference(self):
        table = EmbeddingTable(num_rows=50, embedding_dim=8, seed=1)
        indices = [1, 2, 3, 4]
        lengths = [2, 2]
        expected = sparse_lengths_sum(table.weights, indices, lengths)
        np.testing.assert_allclose(table.lookup(indices, lengths), expected,
                                   rtol=1e-6)

    def test_lookup_mean_mode(self):
        table = EmbeddingTable(num_rows=50, embedding_dim=8, seed=1)
        output = table.lookup([0, 1], [2], mode="mean")
        expected = (table.weights[0] + table.weights[1]) / 2
        np.testing.assert_allclose(output[0], expected, rtol=1e-5)

    def test_quantized_lookup_close_to_dense(self):
        dense = EmbeddingTable(num_rows=30, embedding_dim=8, seed=3)
        quantised = EmbeddingTable(num_rows=30, embedding_dim=8, seed=3,
                                   quantized=True)
        indices, lengths = [5, 6, 7], [3]
        exact = dense.lookup(indices, lengths)
        approx = quantised.lookup(indices, lengths)
        np.testing.assert_allclose(approx, exact, atol=0.2)

    def test_invalid_mode(self):
        table = EmbeddingTable(10, 4, seed=0)
        with pytest.raises(ValueError):
            table.lookup([0], [1], mode="max")

    def test_validation(self):
        with pytest.raises(ValueError):
            EmbeddingTable(0, 4)
        with pytest.raises(ValueError):
            EmbeddingTable(4, 0)


class TestEmbeddingBag:
    def test_tables_page_aligned_and_disjoint(self):
        bag = EmbeddingBag(num_tables=4, num_rows=33, embedding_dim=16,
                           lazy=True)
        previous_end = 0
        for table in bag.tables:
            assert table.base_address % 4096 == 0
            assert table.base_address >= previous_end
            previous_end = table.base_address + table.table_bytes

    def test_forward_runs_requests(self):
        bag = EmbeddingBag(num_tables=2, num_rows=20, embedding_dim=4, seed=0)
        requests = [
            SLSRequest(table_id=0, indices=[0, 1], lengths=[2]),
            SLSRequest(table_id=1, indices=[2, 3, 4], lengths=[3]),
        ]
        outputs = bag.forward(requests)
        assert len(outputs) == 2
        assert outputs[0].shape == (1, 4)
        assert outputs[1].shape == (1, 4)

    def test_rejects_zero_tables(self):
        with pytest.raises(ValueError):
            EmbeddingBag(num_tables=0, num_rows=10, embedding_dim=4)
