"""Reference full-scan FR-FCFS reorder of one NMP packet.

The readable specification of :func:`repro.core.kernels.reorder_packets`
for one packet: every pending member of the sliding window is scanned,
in window order, for one whose row equals the last row issued to its
rank.  The library's CPython twin scans only the members that *can*
match and the flat kernel runs on int64 arrays; both are pinned to this
loop, which shares no code with them.
"""


def reorder_window(rows, ranks, window_size, num_ranks):
    """FR-FCFS permutation of ``rows``/``ranks`` as a list of indices."""
    count = len(rows)
    window = list(range(window_size if window_size < count else count))
    next_index = len(window)
    last = [-1] * num_ranks
    order = []
    append = order.append
    while window:
        chosen_pos = 0
        for pos, index in enumerate(window):
            if last[ranks[index]] == rows[index]:
                chosen_pos = pos
                break
        index = window.pop(chosen_pos)
        if next_index < count:
            window.append(next_index)
            next_index += 1
        last[ranks[index]] = rows[index]
        append(index)
    return order
