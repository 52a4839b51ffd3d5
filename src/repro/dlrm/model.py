"""Functional DLRM model: BottomFC -> embeddings -> interaction -> TopFC.

This is a faithful (if simplified) NumPy reproduction of the open-source
DLRM benchmark architecture the paper characterises (Fig. 2(a)): dense
features flow through the bottom MLP, sparse features through per-table SLS
poolings, both meet in a pairwise dot-product feature interaction, and the
top MLP produces the click-through-rate prediction.
"""

from dataclasses import dataclass

import numpy as np

from repro.dlrm.config import ModelConfig
from repro.dlrm.embedding import EmbeddingBag
from repro.dlrm.mlp import MLP
from repro.dlrm.operators import SLSRequest


@dataclass
class DLRMOutput:
    """Output of one DLRM forward pass."""

    predictions: np.ndarray          # (batch,) click-through-rate in [0, 1]
    bottom_output: np.ndarray        # (batch, bottom_mlp[-1])
    embedding_outputs: list          # per-table (batch, dim) pooled vectors
    interaction: np.ndarray          # (batch, top_mlp_input_width)


class DLRMModel:
    """A runnable, small-scale instance of a DLRM configuration.

    Production tables have a million rows; for a functional model we allow
    shrinking them (``rows_override``) while keeping the architecture -- the
    performance studies never need the full weight data, only addresses.
    """

    def __init__(self, config, rows_override=1024, seed=0):
        if not isinstance(config, ModelConfig):
            raise TypeError("config must be a ModelConfig")
        if rows_override is not None and rows_override <= 0:
            raise ValueError("rows_override must be positive")
        self.config = config
        self.num_rows = rows_override or config.rows_per_table
        self.embeddings = EmbeddingBag(
            num_tables=config.num_embedding_tables,
            num_rows=self.num_rows,
            embedding_dim=config.embedding_dim,
            lazy=False,
            seed=seed,
        )
        self.bottom_mlp = MLP(config.num_dense_features, config.bottom_mlp,
                              final_activation="relu", seed=seed + 1)
        if config.bottom_mlp[-1] != config.embedding_dim:
            raise ValueError(
                "bottom MLP output width (%d) must equal embedding_dim (%d) "
                "for the dot-product interaction"
                % (config.bottom_mlp[-1], config.embedding_dim))
        self.top_mlp = MLP(config.top_mlp_input_width(), config.top_mlp,
                           final_activation="sigmoid", seed=seed + 2)
        self._rng = np.random.default_rng(seed + 3)

    # ------------------------------------------------------------------ #
    # Input generation                                                   #
    # ------------------------------------------------------------------ #
    def random_inputs(self, batch_size, pooling_factor=None, index_sampler=None):
        """Generate a random (dense, sparse-requests) input batch.

        ``index_sampler`` optionally supplies row indices (e.g. a production
        trace generator); the default is uniform random.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        pooling = pooling_factor or self.config.pooling_factor
        dense = self._rng.standard_normal(
            (batch_size, self.config.num_dense_features)).astype(np.float32)
        requests = []
        for table_id in range(self.config.num_embedding_tables):
            count = batch_size * pooling
            if index_sampler is None:
                indices = self._rng.integers(0, self.num_rows, size=count,
                                             dtype=np.int64)
            else:
                indices = np.asarray(index_sampler(table_id, count),
                                     dtype=np.int64) % self.num_rows
            lengths = np.full(batch_size, pooling, dtype=np.int64)
            requests.append(SLSRequest(table_id=table_id, indices=indices,
                                       lengths=lengths))
        return dense, requests

    # ------------------------------------------------------------------ #
    # Forward pass                                                       #
    # ------------------------------------------------------------------ #
    def interact(self, bottom_output, embedding_outputs):
        """Pairwise dot-product feature interaction (DLRM "dot" mode)."""
        batch_size = bottom_output.shape[0]
        features = np.stack([bottom_output] + list(embedding_outputs), axis=1)
        # (batch, F, F) Gram matrix of the F feature vectors.
        gram = np.einsum("bfd,bgd->bfg", features, features)
        num_features = features.shape[1]
        upper_i, upper_j = np.triu_indices(num_features, k=1)
        pairwise = gram[:, upper_i, upper_j]
        return np.concatenate([bottom_output, pairwise], axis=1).astype(
            np.float32).reshape(batch_size, -1)

    def forward(self, dense_features, sls_requests):
        """Run the full model; returns a :class:`DLRMOutput`."""
        dense_features = np.asarray(dense_features, dtype=np.float32)
        if dense_features.ndim != 2:
            raise ValueError("dense_features must be (batch, num_dense)")
        batch_size = dense_features.shape[0]
        if len(sls_requests) != self.config.num_embedding_tables:
            raise ValueError(
                "expected %d SLS requests (one per table), got %d"
                % (self.config.num_embedding_tables, len(sls_requests)))
        bottom_output = self.bottom_mlp(dense_features)
        embedding_outputs = self.embeddings.forward(sls_requests)
        for output in embedding_outputs:
            if output.shape[0] != batch_size:
                raise ValueError(
                    "SLS batch size %d does not match dense batch size %d"
                    % (output.shape[0], batch_size))
        interaction = self.interact(bottom_output, embedding_outputs)
        predictions = self.top_mlp(interaction)[:, 0]
        return DLRMOutput(predictions=predictions,
                          bottom_output=bottom_output,
                          embedding_outputs=embedding_outputs,
                          interaction=interaction)

    __call__ = forward
