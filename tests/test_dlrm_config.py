"""Tests for repro.dlrm.config."""

import pytest

from repro.dlrm.config import (
    MODEL_CONFIGS,
    RM1_LARGE,
    RM1_SMALL,
    RM2_LARGE,
    RM2_SMALL,
    ModelConfig,
    scaled_config,
)


class TestModelConfigs:
    def test_table_counts_match_paper(self):
        # Figure 2(b): 8, 12, 24, 64 embedding tables.
        assert RM1_SMALL.num_embedding_tables == 8
        assert RM1_LARGE.num_embedding_tables == 12
        assert RM2_SMALL.num_embedding_tables == 24
        assert RM2_LARGE.num_embedding_tables == 64

    def test_rows_per_table(self):
        for config in MODEL_CONFIGS.values():
            assert config.rows_per_table == 1_000_000

    def test_batch_sizes(self):
        assert RM1_SMALL.batch_sizes == (8, 64, 128, 256)

    def test_vector_bytes_in_production_range(self):
        # The paper quotes 64-256 B embedding vectors.
        for config in MODEL_CONFIGS.values():
            assert 64 <= config.embedding_vector_bytes <= 256

    def test_lookups_per_sample(self):
        assert RM1_SMALL.lookups_per_sample() == 8 * 80

    def test_sls_bytes_per_sample(self):
        expected = 8 * 80 * RM1_SMALL.embedding_vector_bytes
        assert RM1_SMALL.sls_bytes_per_sample() == expected

    def test_fc_flops_positive_and_ordered(self):
        assert RM2_LARGE.fc_flops_per_sample() > RM1_SMALL.fc_flops_per_sample()

    def test_top_mlp_input_width(self):
        # num features = tables + 1, pairwise interactions + bottom output.
        features = RM1_SMALL.num_embedding_tables + 1
        pairs = features * (features - 1) // 2
        assert RM1_SMALL.top_mlp_input_width() == \
            RM1_SMALL.bottom_mlp[-1] + pairs

    def test_rm2_large_topfc_exceeds_l2(self):
        # The co-location study relies on RM2-large's TopFC spilling to LLC.
        assert RM2_LARGE.fc_weight_bytes() > 1024 * 1024

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(name="bad", num_embedding_tables=0, rows_per_table=1,
                        embedding_dim=1, pooling_factor=1, bottom_mlp=(1,),
                        top_mlp=(1,))
        with pytest.raises(ValueError):
            ModelConfig(name="bad", num_embedding_tables=1, rows_per_table=1,
                        embedding_dim=1, pooling_factor=1, bottom_mlp=(),
                        top_mlp=(1,))


class TestLookupHelpers:
    def test_scaled_config_overrides(self):
        small = scaled_config(RM1_SMALL, rows_per_table=1024)
        assert small.rows_per_table == 1024
        assert small.num_embedding_tables == RM1_SMALL.num_embedding_tables
        assert isinstance(small.bottom_mlp, tuple)
