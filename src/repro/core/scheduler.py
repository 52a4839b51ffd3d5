"""NMP packet scheduling (Section III-D, Fig. 11).

In production, the memory controller receives NMP packets from many parallel
SLS threads (different tables, different co-located models) with equal
priority.  Interleaving them destroys the intra-table temporal locality the
RankCache could otherwise exploit.  The *table-aware* scheduling policy
reorders the packet queue so that all packets of one (model, table, batch)
group issue back to back, preserving the reuse within a batch.
:class:`~repro.core.memory_controller.NMPMemoryController` orders each
dispatch's queued packets with one of the two functions below.
"""

from collections import OrderedDict


def fcfs_interleaved_order(packet_lists):
    """Baseline scheduling: round-robin interleave packets across sources.

    ``packet_lists`` is a list of per-source packet lists (one source per
    SLS thread / table).  The result mimics an FR-FCFS memory controller
    receiving concurrent packets from parallel threads with equal priority.
    """
    order = []
    positions = [0] * len(packet_lists)
    remaining = sum(len(packets) for packets in packet_lists)
    while remaining:
        for source, packets in enumerate(packet_lists):
            position = positions[source]
            if position < len(packets):
                order.append(packets[position])
                positions[source] += 1
                remaining -= 1
    return order


def table_aware_order(packet_lists):
    """Table-aware scheduling: issue all packets of one table/batch together.

    Packets are grouped by ``(model_id, table_id, batch_index)`` and groups
    are emitted in first-arrival order, which retains the intra-batch,
    intra-table temporal locality in the RankCache.
    """
    groups = OrderedDict()
    for packets in packet_lists:
        for packet in packets:
            key = (packet.model_id, packet.table_id, packet.batch_index)
            groups.setdefault(key, []).append(packet)
    order = []
    for group_packets in groups.values():
        order.extend(group_packets)
    return order

