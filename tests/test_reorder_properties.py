"""The pruned FR-FCFS reorder scans equal the full-scan oracle.

``kernels._reorder_window_python`` visits only window members whose
``(rank, row)`` key recurs in the packet or whose row is the ``-1``
sentinel every rank's last row starts as; ``_reorder_window_flat_py``
(the numba kernel's source, un-jitted) scans every member.  Both must
return the permutation of :func:`reorder_oracle.reorder_window`.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reorder_oracle
from repro.core import kernels

#: A small row pool, so keys recur, including the ``-1`` sentinel.
ROWS = st.sampled_from([-1, 0, 1, 2, 3, 7, 40])


@st.composite
def packets(draw):
    """``(rows, ranks, window, num_ranks)`` of one packet."""
    count = draw(st.integers(0, 120), label="count")
    num_ranks = draw(st.integers(1, 16), label="num_ranks")
    rows = draw(st.lists(ROWS, min_size=count, max_size=count),
                label="rows")
    ranks = draw(st.lists(st.integers(0, num_ranks - 1), min_size=count,
                          max_size=count), label="ranks")
    window = draw(st.integers(1, 20), label="window")
    return rows, ranks, window, num_ranks


@settings(max_examples=300, deadline=None)
@given(packets())
def test_pruned_and_flat_scans_equal_oracle(packet):
    rows, ranks, window, num_ranks = packet
    expected = reorder_oracle.reorder_window(rows, ranks, window, num_ranks)
    assert kernels._reorder_window_python(
        rows, ranks, window, num_ranks) == expected
    flat = kernels._reorder_window_flat_py(
        np.asarray(rows, dtype=np.int64), np.asarray(ranks, dtype=np.int64),
        window, num_ranks)
    assert flat.tolist() == expected


def test_sentinel_row_is_hoisted_without_a_recurring_key():
    # Row -1 matches every rank's initial last row, so the lone -1 at
    # index 2 is hoisted past two older unique rows.
    rows = [5, 6, -1, 8]
    ranks = [0, 1, 2, 3]
    expected = reorder_oracle.reorder_window(rows, ranks, 4, 4)
    assert expected == [2, 0, 1, 3]
    assert kernels._reorder_window_python(rows, ranks, 4, 4) == expected
