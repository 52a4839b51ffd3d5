"""SLS-family sparse embedding operators (functional, NumPy).

The paper targets the Caffe2 ``SparseLengths*`` operator family: a Gather of
embedding rows followed by an element-wise Reduce (sum / mean), optionally
weighted and optionally over 8-bit row-wise-quantised tables.  These
functional implementations are the golden reference the near-memory datapath
is validated against.
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass
class SLSRequest:
    """One SLS operator invocation: a batch of pooling operations.

    Attributes
    ----------
    table_id:
        Identifier of the embedding table being read.
    indices:
        Flat vector of row indices, length ``sum(lengths)``.
    lengths:
        Per-pooling lookup counts; ``len(lengths)`` is the batch size.
    weights:
        Optional per-lookup weights (same length as ``indices``).
    """

    table_id: int
    indices: np.ndarray
    lengths: np.ndarray
    weights: np.ndarray = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        indices = np.asarray(self.indices)
        self.lengths = np.asarray(self.lengths, dtype=np.int64)
        if indices.ndim != 1:
            raise ValueError("indices must be a 1-D vector")
        # Row indices are non-negative integers: a negative one would wrap
        # to the top of the address space (and to the table's last row in
        # the NumPy reference), a fractional one would be truncated.
        if indices.dtype.kind in "biu":
            bad = None if indices.min(initial=0) >= 0 else indices < 0
        else:
            bad = ((indices < 0) | ~np.isfinite(indices)
                   | (indices != np.trunc(indices)))
        if bad is not None and bad.any():
            position = int(np.argmax(bad))
            raise ValueError(
                "indices must be non-negative integers, got indices[%d]=%r"
                % (position, indices[position].item()))
        self.indices = indices.astype(np.int64, copy=False)
        if self.lengths.ndim != 1:
            raise ValueError("lengths must be a 1-D vector")
        if self.lengths.sum() != self.indices.shape[0]:
            raise ValueError(
                "sum(lengths)=%d does not match len(indices)=%d"
                % (self.lengths.sum(), self.indices.shape[0]))
        if (self.lengths <= 0).any():
            raise ValueError("all pooling lengths must be positive")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=np.float32)
            if self.weights.shape != self.indices.shape:
                raise ValueError("weights must match indices in shape")

    @property
    def batch_size(self):
        """Number of pooling operations in this request."""
        return int(self.lengths.shape[0])

    @property
    def total_lookups(self):
        """Total number of embedding rows gathered."""
        return int(self.indices.shape[0])


def _check_table(table):
    table = np.asarray(table)
    if table.ndim != 2:
        raise ValueError("embedding table must be 2-D (rows x dim)")
    return table


def _segment_offsets(lengths):
    lengths = np.asarray(lengths, dtype=np.int64)
    if (lengths <= 0).any():
        raise ValueError("all pooling lengths must be positive")
    return np.concatenate(([0], np.cumsum(lengths))), lengths


def sparse_lengths_sum(table, indices, lengths):
    """SparseLengthsSum: per-pooling sum of gathered rows.

    Returns an array of shape ``(len(lengths), table.shape[1])``.
    """
    table = _check_table(table)
    indices = np.asarray(indices, dtype=np.int64)
    offsets, lengths = _segment_offsets(lengths)
    if offsets[-1] != indices.shape[0]:
        raise ValueError("sum(lengths) must equal len(indices)")
    output = np.zeros((lengths.shape[0], table.shape[1]), dtype=np.float32)
    gathered = table[indices].astype(np.float32, copy=False)
    for i in range(lengths.shape[0]):
        output[i] = gathered[offsets[i]:offsets[i + 1]].sum(axis=0)
    return output


def sparse_lengths_mean(table, indices, lengths):
    """SparseLengthsMean: per-pooling mean of gathered rows."""
    sums = sparse_lengths_sum(table, indices, lengths)
    lengths = np.asarray(lengths, dtype=np.float32)
    return sums / lengths[:, None]


def sparse_lengths_weighted_sum(table, indices, lengths, weights):
    """SparseLengthsWeightedSum: per-pooling weighted sum of gathered rows."""
    table = _check_table(table)
    indices = np.asarray(indices, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float32)
    if weights.shape != indices.shape:
        raise ValueError("weights must match indices in shape")
    offsets, lengths = _segment_offsets(lengths)
    if offsets[-1] != indices.shape[0]:
        raise ValueError("sum(lengths) must equal len(indices)")
    output = np.zeros((lengths.shape[0], table.shape[1]), dtype=np.float32)
    gathered = table[indices].astype(np.float32, copy=False)
    weighted = gathered * weights[:, None]
    for i in range(lengths.shape[0]):
        output[i] = weighted[offsets[i]:offsets[i + 1]].sum(axis=0)
    return output


# --------------------------------------------------------------------- #
# 8-bit row-wise quantisation (SparseLengthsSum8BitsRowwise).            #
# --------------------------------------------------------------------- #
def quantize_rowwise_8bit(table):
    """Row-wise 8-bit quantisation.

    Each row is linearly quantised to uint8 with a per-row ``scale`` and
    ``bias`` such that ``row ~= quantised * scale + bias``.  Returns
    ``(quantised_uint8, scale, bias)``.
    """
    table = _check_table(table).astype(np.float32)
    row_min = table.min(axis=1)
    row_max = table.max(axis=1)
    span = row_max - row_min
    scale = np.where(span > 0, span / 255.0, 1.0).astype(np.float32)
    bias = row_min.astype(np.float32)
    quantised = np.clip(
        np.rint((table - bias[:, None]) / scale[:, None]), 0, 255
    ).astype(np.uint8)
    return quantised, scale, bias


def dequantize_rowwise_8bit(quantised, scale, bias):
    """Inverse of :func:`quantize_rowwise_8bit` (lossy)."""
    quantised = np.asarray(quantised)
    scale = np.asarray(scale, dtype=np.float32)
    bias = np.asarray(bias, dtype=np.float32)
    return quantised.astype(np.float32) * scale[:, None] + bias[:, None]


def sparse_lengths_sum_8bit(quantised, scale, bias, indices, lengths,
                            weights=None):
    """SparseLengthsSum over an 8-bit row-wise-quantised table.

    Rows are dequantised on the fly (``q * scale + bias``) before the
    (optionally weighted) per-pooling summation -- exactly the datapath the
    rank-NMP module implements with its Scalar and Bias registers.
    """
    dequantised = dequantize_rowwise_8bit(quantised, scale, bias)
    if weights is None:
        return sparse_lengths_sum(dequantised, indices, lengths)
    return sparse_lengths_weighted_sum(dequantised, indices, lengths, weights)
