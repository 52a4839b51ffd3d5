"""Representative recommendation-model configurations.

Figure 2(b) of the paper lists the four DLRM configurations studied
(RM1-small, RM1-large, RM2-small, RM2-large): the number of embedding
tables, rows per table, pooling factor range, batch-size range, and the
number of FC layers.  RM1 models are smaller (few tables, over 30 % of
Facebook's ML cycles), RM2 models have tens of tables (over 25 %).
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ModelConfig:
    """Parameters of one recommendation model configuration.

    Attributes
    ----------
    name:
        Human-readable configuration name.
    num_embedding_tables:
        Number of sparse features / embedding tables.
    rows_per_table:
        Number of rows (entities) in each embedding table.
    embedding_dim:
        Embedding vector length in FP32 elements (vector bytes = dim * 4).
    pooling_factor:
        Average number of lookups reduced per pooling operation.
    bottom_mlp:
        Layer widths of the bottom MLP (dense-feature arm).
    top_mlp:
        Layer widths of the top MLP (post feature-interaction).
    num_dense_features:
        Width of the dense input feature vector.
    batch_sizes:
        Batch sizes exercised in the evaluation.
    """

    name: str
    num_embedding_tables: int
    rows_per_table: int
    embedding_dim: int
    pooling_factor: int
    bottom_mlp: tuple
    top_mlp: tuple
    num_dense_features: int = 512
    batch_sizes: tuple = (8, 64, 128, 256)

    def __post_init__(self):
        if self.num_embedding_tables <= 0:
            raise ValueError("num_embedding_tables must be positive")
        if self.rows_per_table <= 0:
            raise ValueError("rows_per_table must be positive")
        if self.embedding_dim <= 0:
            raise ValueError("embedding_dim must be positive")
        if self.pooling_factor <= 0:
            raise ValueError("pooling_factor must be positive")
        if not self.bottom_mlp or not self.top_mlp:
            raise ValueError("MLP layer lists must be non-empty")

    # ------------------------------------------------------------------ #
    @property
    def embedding_vector_bytes(self):
        """Bytes of one FP32 embedding vector."""
        return self.embedding_dim * 4

    def lookups_per_sample(self):
        """Embedding rows gathered for one input sample."""
        return self.num_embedding_tables * self.pooling_factor

    def sls_bytes_per_sample(self):
        """Bytes read from embedding tables for one input sample."""
        return self.lookups_per_sample() * self.embedding_vector_bytes

    def sls_flops_per_sample(self):
        """FLOPs of the pooling reductions for one input sample."""
        # Each pooling sums `pooling_factor` vectors of `embedding_dim`
        # elements: (pooling_factor - 1) * dim additions per table.
        return (self.num_embedding_tables
                * (self.pooling_factor - 1) * self.embedding_dim)

    def fc_flops_per_sample(self):
        """FLOPs of the bottom + top MLPs for one input sample (GEMV)."""
        flops = 0
        prev = self.num_dense_features
        for width in self.bottom_mlp:
            flops += 2 * prev * width
            prev = width
        interaction_width = self.top_mlp_input_width()
        prev = interaction_width
        for width in self.top_mlp:
            flops += 2 * prev * width
            prev = width
        return flops

    def top_mlp_input_width(self):
        """Width of the feature-interaction output feeding the top MLP.

        DLRM concatenates the bottom-MLP output with the pairwise dot
        products of the embedding-pooling outputs and the dense embedding.
        """
        num_features = self.num_embedding_tables + 1
        num_pairs = num_features * (num_features - 1) // 2
        return self.bottom_mlp[-1] + num_pairs

    def fc_weight_bytes(self):
        """Bytes of all FC weights (FP32)."""
        total = 0
        prev = self.num_dense_features
        for width in self.bottom_mlp:
            total += prev * width * 4
            prev = width
        prev = self.top_mlp_input_width()
        for width in self.top_mlp:
            total += prev * width * 4
            prev = width
        return total


# --------------------------------------------------------------------- #
# The four configurations of Figure 2(b).  The paper gives the table
# count, ~1M rows per table, pooling 20-80 (we use the 80 upper bound the
# SLS latency study quotes: "one pooling is the sum of 80 embedding
# vectors"), and 6 FC layers; MLP widths follow the open-source DLRM
# benchmark's representative configurations.
# --------------------------------------------------------------------- #
RM1_SMALL = ModelConfig(
    name="RM1-small",
    num_embedding_tables=8,
    rows_per_table=1_000_000,
    embedding_dim=64,
    pooling_factor=80,
    bottom_mlp=(512, 256, 64),
    top_mlp=(256, 64, 1),
)

RM1_LARGE = ModelConfig(
    name="RM1-large",
    num_embedding_tables=12,
    rows_per_table=1_000_000,
    embedding_dim=64,
    pooling_factor=80,
    bottom_mlp=(512, 256, 64),
    top_mlp=(512, 128, 1),
)

RM2_SMALL = ModelConfig(
    name="RM2-small",
    num_embedding_tables=24,
    rows_per_table=1_000_000,
    embedding_dim=64,
    pooling_factor=80,
    bottom_mlp=(512, 256, 64),
    top_mlp=(512, 128, 1),
)

RM2_LARGE = ModelConfig(
    name="RM2-large",
    num_embedding_tables=64,
    rows_per_table=1_000_000,
    embedding_dim=64,
    pooling_factor=80,
    bottom_mlp=(512, 256, 64),
    top_mlp=(1024, 512, 1),
)

MODEL_CONFIGS = {
    config.name: config
    for config in (RM1_SMALL, RM1_LARGE, RM2_SMALL, RM2_LARGE)
}


def scaled_config(base, **overrides):
    """Return a copy of ``base`` with selected fields overridden.

    Useful for building reduced-size configurations that keep the shape of a
    production model but fit comfortably in unit tests.
    """
    from dataclasses import asdict

    params = asdict(base)
    params.update(overrides)
    # dataclasses.asdict converts tuples to lists; restore tuples.
    for key in ("bottom_mlp", "top_mlp", "batch_sizes"):
        params[key] = tuple(params[key])
    return ModelConfig(**params)
