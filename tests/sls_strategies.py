"""SLS request strategies and address maps shared by the stream oracles.

The packet generator oracle (``test_packet_generator_oracle.py``) and
the SLS stream oracle (``test_sls_stream_oracle.py``) draw the same
inputs: up to four requests over :data:`NUM_TABLES` tables of
:data:`NUM_ROWS` rows, ragged pooling lengths, optional per-lookup
weights, and one of two address maps:

- :func:`scalar_address_of` places tables page-aligned and takes one
  scalar row at a time: it raises on an index array, which keeps the
  generator on its per-lookup address calls;
- :func:`array_address_of` is the dense :class:`TableLayout` map, which
  also accepts index arrays.
"""

import numbers

import numpy as np
from hypothesis import strategies as st

from repro.dlrm.operators import SLSRequest
from repro.systems.base import TableLayout

NUM_ROWS = 64
NUM_TABLES = 3
PAGE_BYTES = 4096

#: The generator oracle's weights: exact 1.0 (which the packed ``weighted``
#: column marks unweighted) mixed with arbitrary FP32 values.
ANY_WEIGHTS = st.sampled_from([1.0, 0.5, 0.25, 1.5]) \
    | st.floats(0.0, 4.0, width=32)

#: Dyadic weights (multiples of 1/8 in [0, 4]) with exact 1.0 among them:
#: integer-valued rows times these sum exactly in FP32 in any order.
DYADIC_WEIGHTS = st.sampled_from([1.0, 0.5, 0.25, 1.5]) \
    | st.integers(0, 32).map(lambda eighths: eighths / 8)


def scalar_address_of(vector_bytes):
    """Page-aligned tables, one scalar row per call; raises on arrays."""
    table_bytes = -(-NUM_ROWS * vector_bytes // PAGE_BYTES) * PAGE_BYTES

    def address_of(table_id, row):
        if not isinstance(row, numbers.Integral):
            raise ValueError("expected one row index, got %r" % (row,))
        if not 0 <= row < NUM_ROWS:
            raise IndexError("row %d out of range" % row)
        return table_id * table_bytes + row * vector_bytes

    return address_of


def array_address_of(vector_bytes):
    """Dense row-major tables; also maps an index array in one call."""
    return TableLayout(num_rows=NUM_ROWS,
                       vector_bytes=vector_bytes).address_of


@st.composite
def sls_requests(draw, weights=ANY_WEIGHTS):
    """One to four requests with ragged lengths.

    A request is weighted with probability one half, drawing its weights
    from ``weights``; ``weights=None`` never weights a request.
    """
    requests = []
    for _ in range(draw(st.integers(1, 4), label="requests")):
        lengths = draw(st.lists(st.integers(1, 12), min_size=1,
                                max_size=20), label="lengths")
        total = sum(lengths)
        indices = draw(st.lists(st.integers(0, NUM_ROWS - 1),
                                min_size=total, max_size=total),
                       label="indices")
        request_weights = None
        if weights is not None and draw(st.booleans(), label="weighted"):
            request_weights = draw(st.lists(weights, min_size=total,
                                            max_size=total),
                                   label="weights")
        requests.append(SLSRequest(
            table_id=draw(st.integers(0, NUM_TABLES - 1), label="table"),
            indices=np.asarray(indices, dtype=np.int64),
            lengths=np.asarray(lengths), weights=request_weights))
    return requests
