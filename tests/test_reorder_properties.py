"""The pruned FR-FCFS reorder scans equal the full-scan oracle.

``kernels._reorder_window_python`` visits only window members whose
``(rank, row)`` key recurs in their packet or whose row is the ``-1``
sentinel every rank's last row starts as; which keys recur is computed
once per dispatch (``kernels._hoistable``, keyed by packet).
``_reorder_window_flat_py`` (the numba kernel's source, un-jitted) scans
every member of one packet.  Both must give every packet of a dispatch
the permutation of :func:`reorder_oracle.reorder_window`, and
``kernels.reorder_packets`` the same for every packet of more than two
instructions.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reorder_oracle
from repro.core import kernels

#: A small row pool, so keys recur, including the ``-1`` sentinel.
ROWS = st.sampled_from([-1, 0, 1, 2, 3, 7, 40])


@st.composite
def dispatches(draw):
    """``(rows, ranks, bounds, window, num_ranks)`` of one to four packets
    back to back; packet ``p`` holds rows ``bounds[p]:bounds[p + 1]``."""
    num_ranks = draw(st.integers(1, 16), label="num_ranks")
    sizes = draw(st.lists(st.integers(0, 60), min_size=1, max_size=4),
                 label="sizes")
    bounds = [0]
    for size in sizes:
        bounds.append(bounds[-1] + size)
    rows = draw(st.lists(ROWS, min_size=bounds[-1], max_size=bounds[-1]),
                label="rows")
    ranks = draw(st.lists(st.integers(0, num_ranks - 1),
                          min_size=bounds[-1], max_size=bounds[-1]),
                 label="ranks")
    window = draw(st.integers(1, 20), label="window")
    return rows, ranks, bounds, window, num_ranks


def _oracle(rows, ranks, bounds, window, num_ranks, keep_short=False):
    """Every packet's oracle permutation, as dispatch-wide indices."""
    order = []
    for begin, end in zip(bounds, bounds[1:]):
        if keep_short and end - begin <= 2:
            order += range(begin, end)
            continue
        order += [begin + index for index in reorder_oracle.reorder_window(
            rows[begin:end], ranks[begin:end], window, num_ranks)]
    return order


@settings(max_examples=300, deadline=None)
@given(dispatches())
def test_pruned_and_flat_scans_equal_oracle(dispatch):
    rows, ranks, bounds, window, num_ranks = dispatch
    expected = _oracle(rows, ranks, bounds, window, num_ranks)
    row_array = np.asarray(rows, dtype=np.int64)
    rank_array = np.asarray(ranks, dtype=np.int64)
    packets = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    hoistable = kernels._hoistable(row_array, rank_array, packets).tolist()
    pruned = []
    for begin, end in zip(bounds, bounds[1:]):
        kernels._reorder_window_python(rows, ranks, hoistable, begin, end,
                                       window, num_ranks, pruned)
    assert pruned == expected
    flat = [begin + index
            for begin, end in zip(bounds, bounds[1:])
            for index in kernels._reorder_window_flat_py(
                row_array[begin:end], rank_array[begin:end], window,
                num_ranks).tolist()]
    assert flat == expected
    with kernels.force_flavor("python"):
        issued = kernels.reorder_packets(row_array, rank_array, bounds,
                                         window, num_ranks)
    assert issued.tolist() == _oracle(rows, ranks, bounds, window,
                                      num_ranks, keep_short=True)


def test_sentinel_row_is_hoisted_without_a_recurring_key():
    # Row -1 matches every rank's initial last row, so the lone -1 at
    # index 2 is hoisted past two older unique rows.
    rows = [5, 6, -1, 8]
    ranks = [0, 1, 2, 3]
    expected = reorder_oracle.reorder_window(rows, ranks, 4, 4)
    assert expected == [2, 0, 1, 3]
    with kernels.force_flavor("python"):
        order = kernels.reorder_packets(np.array(rows), np.array(ranks),
                                        [0, 4], 4, 4)
    assert order.tolist() == expected


def test_recurring_keys_are_counted_per_packet():
    # The same (rank, row) key in two packets recurs in neither: only
    # the sentinel row is hoistable.
    rows = np.array([3, 5, -1, 3, 6], dtype=np.int64)
    ranks = np.zeros(5, dtype=np.int64)
    packets = np.array([0, 0, 0, 1, 1])
    assert kernels._hoistable(rows, ranks, packets).tolist() == \
        [False, False, True, False, False]
