"""DLRM workload substrate.

Functional (NumPy) implementations of the deep-learning recommendation model
pieces the paper characterises: embedding tables with the SLS family of
Gather-Reduce operators, bottom/top MLPs, and the four representative model
configurations (RM1-small, RM1-large, RM2-small, RM2-large).
"""

from repro.dlrm.config import (
    ModelConfig,
    RM1_SMALL,
    RM1_LARGE,
    RM2_SMALL,
    RM2_LARGE,
    MODEL_CONFIGS,
)
from repro.dlrm.embedding import EmbeddingTable, EmbeddingBag
from repro.dlrm.operators import (
    SLSRequest,
    sparse_lengths_sum,
    sparse_lengths_mean,
    sparse_lengths_weighted_sum,
    sparse_lengths_sum_8bit,
    quantize_rowwise_8bit,
    dequantize_rowwise_8bit,
)
from repro.dlrm.mlp import MLP
from repro.dlrm.model import DLRMModel, DLRMOutput

__all__ = [
    "ModelConfig",
    "RM1_SMALL",
    "RM1_LARGE",
    "RM2_SMALL",
    "RM2_LARGE",
    "MODEL_CONFIGS",
    "EmbeddingTable",
    "EmbeddingBag",
    "SLSRequest",
    "sparse_lengths_sum",
    "sparse_lengths_mean",
    "sparse_lengths_weighted_sum",
    "sparse_lengths_sum_8bit",
    "quantize_rowwise_8bit",
    "dequantize_rowwise_8bit",
    "MLP",
    "DLRMModel",
    "DLRMOutput",
]
