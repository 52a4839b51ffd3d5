"""The per-rank, per-packet rank-NMP model the channel loop is checked
against.

Before the channel ran every rank of a packet in one pass over flat
state, each rank-NMP ran its own stream in a method of its own,
``_execute_window``, over the ``Rank`` and ``Bank`` objects of
``tests/ddr4_reference.py``, and the channel split each packet over its
ranks and called each rank in turn.  This module keeps that design as the
oracle:

- :class:`ReferenceRankNMP` is one rank-NMP with that window loop;
- :class:`ReferenceChannel` splits one packet at a time over its ranks;
- :func:`reference_dispatch` runs a packet list through it packet by
  packet, with the full-scan reorder of :mod:`reorder_oracle`.

It shares no code with :func:`repro.core.rank_nmp.execute_segments` or
:meth:`repro.core.processing_unit.RecNMPChannel._prepare`: only the
configuration, the RankCache and the statistics records.
:func:`ddr4_state` reads the DDR4 state of a reference ``Rank`` or of
one rank of a :class:`~repro.dram.timing.DDR4State` in one form,
:func:`timing_state` adds a rank-NMP's counters and current cycle,
:func:`rank_states` reads every rank of either model's channel, and
:func:`reference_rank` loads a production rank's state into a ``Rank``.
"""

import numpy as np

import reorder_oracle
from ddr4_reference import Rank
from repro.cache.rank_cache import RankCache
from repro.core.processing_unit import (
    ADDER_TREE_LATENCY_CYCLES,
    INSTRUCTIONS_PER_CYCLE,
    SUM_TRANSFER_CYCLES,
)
from repro.core.rank_nmp import RankNMPConfig, RankNMPStats
from repro.dram.timing import LONG_AGO, NEVER


def _decode(config, daddr):
    """``(bank_group, bank, row)`` of one Daddr."""
    block = daddr // config.columns_per_row
    block, bank_group = divmod(block, config.num_bank_groups)
    row, bank = divmod(block, config.banks_per_group)
    return bank_group, bank, row


class ReferenceRankNMP:
    """One rank-NMP over ``Rank``/``Bank`` objects and a RankCache."""

    def __init__(self, config=None, rank_index=0):
        self.config = config or RankNMPConfig()
        self.rank_index = rank_index
        self.dram_rank = Rank(self.config.timing,
                              num_bank_groups=self.config.num_bank_groups,
                              banks_per_group=self.config.banks_per_group,
                              rank_index=rank_index)
        self.cache = RankCache(
            capacity_bytes=self.config.cache_capacity_bytes,
            vector_size_bytes=self.config.vector_size_bytes,
            access_latency_cycles=self.config.cache_latency_cycles,
        ) if self.config.use_cache else None
        self.stats = RankNMPStats()
        self.current_cycle = 0

    def execute_packed(self, packed, arrival_cycles, reorder_window=16):
        """One stream of a ``PackedInstructions`` with each instruction's
        arrival cycle; returns the last completion cycle."""
        daddrs = packed.daddrs.tolist()
        decoded = [_decode(self.config, daddr) for daddr in daddrs]
        return self._execute_window(
            daddrs, packed.vsizes.tolist(), packed.weighted.tolist(),
            packed.localities.tolist(), list(arrival_cycles),
            [bank_group for bank_group, _, _ in decoded],
            [bank for _, bank, _ in decoded],
            [row for _, _, row in decoded], reorder_window)

    def _execute_window(self, daddrs, vsizes, weighted, localities,
                        arrival_cycles, bank_groups, bank_indices, rows,
                        reorder_window):
        """The FR-FCFS window loop over aligned per-instruction columns,
        driving the ``Bank`` objects and the rank scalars directly."""
        count = len(daddrs)
        current = self.current_cycle
        if not count:
            return current
        cache = self.cache
        if min(daddrs) < 0:
            raise ValueError("dram_address must be non-negative, got %d"
                             % min(daddrs))
        rank = self.dram_rank
        banks = rank.banks
        banks_per_group = self.config.banks_per_group
        bank_of = [banks[bank_group * banks_per_group + bank_index]
                   for bank_group, bank_index in zip(bank_groups,
                                                     bank_indices)]
        (tRP, tRCD, tCL, tBL, tCCD_S, tCCD_L, tRRD_S, tRRD_L, tFAW, tRAS,
         tRC, tRTP) = rank.timing.kernel_params()
        history = rank._act_history
        faw_ready = history[-4] + tFAW if len(history) >= 4 else 0
        last_act = rank._last_act_cycle
        if last_act is None:
            last_act = LONG_AGO
        last_act_group = rank._last_act_bank_group
        last_col = rank._last_col_cycle
        if last_col is None:
            last_col = LONG_AGO
        last_col_group = rank._last_col_bank_group
        bus_free = rank.next_data_bus_free
        if cache is not None:
            entries = cache._entries
            capacity = cache.num_entries
            move_to_end = entries.move_to_end
            popitem = entries.popitem
        else:
            entries = None
        cache_latency = self.config.cache_latency_cycles
        adder = self.config.adder_latency_cycles
        adder_multiplier = adder + self.config.multiplier_latency_cycles
        hits = misses = bypasses = evictions = 0
        activations = dram_reads = busy = dram_vsizes = cache_vsizes = 0
        last_completion = current
        window_size = reorder_window if reorder_window > 1 else 1
        window = list(range(window_size if window_size < count else count))
        next_index = len(window)
        act_part = {}
        rd_part = {}
        while window:
            best_index = window[0]
            best_estimate = NEVER
            for index in window:
                arrival = arrival_cycles[index]
                start = arrival if arrival > current else current
                if start >= best_estimate:
                    # Arrivals never decrease: no later member can win.
                    break
                if entries is not None and localities[index] and \
                        daddrs[index] in entries:
                    estimate = start
                else:
                    bank_group = bank_groups[index]
                    bank = bank_of[index]
                    open_row = bank.open_row
                    if open_row == rows[index]:
                        ready = bank.next_read
                        part = rd_part.get(bank_group)
                        if part is None:
                            part = bus_free - tCL
                            ccd = last_col + (
                                tCCD_L if bank_group == last_col_group
                                else tCCD_S)
                            if ccd > part:
                                part = ccd
                            rd_part[bank_group] = part
                        if part > ready:
                            ready = part
                    elif open_row is None:
                        ready = bank.next_act
                        part = act_part.get(bank_group)
                        if part is None:
                            part = faw_ready
                            rrd = last_act + (
                                tRRD_L if bank_group == last_act_group
                                else tRRD_S)
                            if rrd > part:
                                part = rrd
                            act_part[bank_group] = part
                        if part > ready:
                            ready = part
                    else:
                        ready = bank.next_pre
                    estimate = start if start > ready else ready
                if estimate < best_estimate:
                    best_estimate = estimate
                    best_index = index
                    if estimate <= current:
                        break
            index = best_index
            window.remove(index)
            if next_index < count:
                window.append(next_index)
                next_index += 1
            vsize = vsizes[index]
            arrival = arrival_cycles[index]
            start = arrival if arrival > current else current
            daddr = daddrs[index]
            if entries is not None and daddr in entries:
                move_to_end(daddr)
                hits += 1
                cache_vsizes += vsize
                data_ready = next_free = start + cache_latency
            else:
                if entries is not None:
                    if localities[index]:
                        misses += 1
                        if len(entries) >= capacity:
                            popitem(last=False)
                            evictions += 1
                        entries[daddr] = None
                    else:
                        bypasses += 1
                bank_group = bank_groups[index]
                bank = bank_of[index]
                row = rows[index]
                cycle = start
                commands = 0
                first_issue = None
                open_row = bank.open_row
                if open_row != row:
                    if open_row is not None:
                        ready = bank.next_pre
                        if ready > cycle:
                            cycle = ready
                        bank.precharges += 1
                        value = cycle + tRP
                        if value > bank.next_act:
                            bank.next_act = value
                        commands = 1
                        first_issue = cycle
                    ready = bank.next_act
                    if faw_ready > ready:
                        ready = faw_ready
                    rrd = last_act + (tRRD_L if bank_group == last_act_group
                                      else tRRD_S)
                    if rrd > ready:
                        ready = rrd
                    if ready > cycle:
                        cycle = ready
                    bank.open_row = row
                    bank.activations += 1
                    value = cycle + tRCD
                    if value > bank.next_read:
                        bank.next_read = value
                    value = cycle + tRAS
                    if value > bank.next_pre:
                        bank.next_pre = value
                    value = cycle + tRC
                    if value > bank.next_act:
                        bank.next_act = value
                    history.append(cycle)
                    while len(history) > 4:
                        history.popleft()
                    if len(history) >= 4:
                        faw_ready = history[-4] + tFAW
                    last_act = cycle
                    last_act_group = bank_group
                    commands += 1
                    if first_issue is None:
                        first_issue = cycle
                    activations += 1
                bursts = vsize if vsize > 1 else 1
                next_read = bank.next_read
                next_pre = bank.next_pre
                for _ in range(bursts):
                    ready = next_read
                    ccd = last_col + (tCCD_L if bank_group == last_col_group
                                      else tCCD_S)
                    if ccd > ready:
                        ready = ccd
                    bus = bus_free - tCL
                    if bus > ready:
                        ready = bus
                    if ready > cycle:
                        cycle = ready
                    value = cycle + tCCD_L
                    if value > next_read:
                        next_read = value
                    value = cycle + tRTP
                    if value > next_pre:
                        next_pre = value
                    last_col = cycle
                    last_col_group = bank_group
                    value = cycle + tCL + tBL
                    if value > bus_free:
                        bus_free = value
                    if first_issue is None:
                        first_issue = cycle
                bank.next_read = next_read
                bank.next_pre = next_pre
                bank.reads += bursts
                dram_reads += bursts
                dram_vsizes += vsize
                data_ready = cycle + tCL + tBL
                next_free = first_issue + commands + bursts
                act_part.clear()
                rd_part.clear()
            completion = data_ready + (adder_multiplier if weighted[index]
                                       else adder)
            if completion > last_completion:
                last_completion = completion
            if next_free > start:
                busy += next_free - start
            current = next_free
        rank._last_act_cycle = None if last_act == LONG_AGO else last_act
        rank._last_act_bank_group = last_act_group
        rank._last_col_cycle = None if last_col == LONG_AGO else last_col
        rank._last_col_bank_group = last_col_group
        rank.next_data_bus_free = bus_free
        self.current_cycle = current
        stats = self.stats
        stats.instructions += count
        stats.cache_hits += hits
        stats.cache_misses += misses
        stats.cache_bypasses += bypasses
        stats.dram_reads += dram_reads
        stats.activations += activations
        stats.busy_cycles += busy
        stats.bytes_from_dram += dram_vsizes * 64
        stats.bytes_from_cache += cache_vsizes * 64
        if cache is not None:
            cache_stats = cache.stats
            cache_stats.hits += hits
            cache_stats.misses += misses
            cache_stats.bypasses += bypasses
            cache_stats.evictions += evictions
        return last_completion


class ReferenceChannel:
    """The channel of ``num_dimms * ranks_per_dimm`` reference rank-NMPs,
    one packet and one rank at a time."""

    def __init__(self, num_dimms=4, ranks_per_dimm=2, rank_config=None):
        self.num_ranks = num_dimms * ranks_per_dimm
        self.rank_config = rank_config or RankNMPConfig()
        self.rank_nmps = [ReferenceRankNMP(self.rank_config, rank_index=r)
                          for r in range(self.num_ranks)]

    def execute_packet(self, packet, start_cycle=0, ranks=None, order=None):
        """Run one packet; returns its completion cycle.

        The instruction at issue position ``i`` arrives at its rank at
        ``start_cycle + i // INSTRUCTIONS_PER_CYCLE``; each rank runs its
        instructions in issue order; the packet completes when the
        slowest rank has, plus the adder tree and one DIMM.Sum per
        distinct PsumTag.
        """
        packed = packet.instructions
        count = len(packed)
        if ranks is None:
            ranks = (packed.daddrs % self.num_ranks).tolist()
        ranks = [int(rank) for rank in ranks]
        issue = list(range(count)) if order is None else \
            [int(index) for index in order]
        if not count:
            return start_cycle
        per_rank = {}
        for position, index in enumerate(issue):
            per_rank.setdefault(ranks[index], []).append(
                (index, start_cycle + position // INSTRUCTIONS_PER_CYCLE))
        lasts = []
        for rank in sorted(per_rank):
            indices = [index for index, _ in per_rank[rank]]
            lasts.append(self.rank_nmps[rank].execute_packed(
                packed.take(np.array(indices, dtype=np.int64)),
                [arrival for _, arrival in per_rank[rank]]))
        poolings = len(set(packed.psum_tags.tolist()))
        return (max(lasts) + ADDER_TREE_LATENCY_CYCLES
                + SUM_TRANSFER_CYCLES * poolings)


def reference_dispatch(channel, packets, reorder_window=16, reorder=True):
    """Run ``packets`` in order through ``channel`` back to back, from
    cycle 0, with the default rank mapping (Daddr modulo the rank count)
    and, if ``reorder``, the full-scan FR-FCFS reorder of each packet.
    Returns ``(total_cycles, per_packet_latencies)``."""
    current = 0
    per_packet = []
    for packet in packets:
        daddrs = packet.instructions.daddrs.tolist()
        ranks = [daddr % channel.num_ranks for daddr in daddrs]
        order = None
        if reorder and len(daddrs) > 2:
            order = reorder_oracle.reorder_window(
                [daddr // 128 for daddr in daddrs], ranks,
                max(1, reorder_window), channel.num_ranks)
        completion = channel.execute_packet(packet, current, ranks, order)
        per_packet.append(completion - current)
        current = completion
    return current, per_packet


def ddr4_state(model, rank=0):
    """One rank's DDR4 state, either model's, as plain values.

    ``model`` is a reference ``Rank``, or a
    :class:`~repro.dram.timing.DDR4State` with ``rank`` the index of the
    rank to read.  ``(last four ACT cycles oldest first, last ACT cycle,
    its bank group, last column cycle, its bank group, data-bus free
    cycle, banks)`` with None for "none yet" and one ``(open row or
    None, next ACT, next RD, next PRE)`` tuple per bank.
    """
    if isinstance(model, Rank):
        return (tuple(model._act_history), model._last_act_cycle,
                model._last_act_bank_group, model._last_col_cycle,
                model._last_col_bank_group, model.next_data_bus_free,
                [(bank.open_row, bank.next_act, bank.next_read,
                  bank.next_pre) for bank in model.banks])
    state = model

    def value(values, index):
        return int(values[index])

    def cycle(values, index):
        found = value(values, index)
        return None if found == LONG_AGO else found

    first = value(state.faw_slot, rank)
    ring = [cycle(state.faw_ring, 4 * rank + (first + i) % 4)
            for i in range(4)]
    low = rank * state.banks_per_rank
    banks = []
    for flat in range(low, low + state.banks_per_rank):
        open_row = value(state.open_row, flat)
        banks.append((None if open_row < 0 else open_row,
                      value(state.next_act, flat),
                      value(state.next_read, flat),
                      value(state.next_pre, flat)))
    last_act = cycle(state.last_act, rank)
    last_col = cycle(state.last_col, rank)
    return (tuple(found for found in ring if found is not None),
            last_act, None if last_act is None
            else value(state.last_act_group, rank),
            last_col, None if last_col is None
            else value(state.last_col_group, rank),
            value(state.bus_free, rank), banks)


def timing_state(model, rank=0):
    """A rank-NMP's state, either model's, as plain values.

    ``model`` is a :class:`ReferenceRankNMP`, or a
    :class:`~repro.core.rank_nmp.RankState` with ``rank`` the index of
    the rank to read.  ``(current_cycle, DDR4 state, counters)``: the
    DDR4 state as :func:`ddr4_state` reads it and one ``(activations,
    reads, precharges)`` tuple per bank.
    """
    if isinstance(model, ReferenceRankNMP):
        dram_rank = model.dram_rank
        return (model.current_cycle, ddr4_state(dram_rank),
                [(bank.activations, bank.reads, bank.precharges)
                 for bank in dram_rank.banks])
    state = model
    low = rank * state.banks_per_rank
    return (int(state.current[rank]), ddr4_state(state, rank),
            [(int(state.activations[flat]), int(state.reads[flat]),
              int(state.precharges[flat]))
             for flat in range(low, low + state.banks_per_rank)])


def rank_states(channel):
    """Per rank of either model's channel: its statistics, its DDR4
    state (:func:`timing_state`) and, with a RankCache, the cache's
    statistics and LRU order."""
    if isinstance(channel, ReferenceChannel):
        ranks = [(rank.stats, timing_state(rank), rank.cache)
                 for rank in channel.rank_nmps]
    else:
        state = channel._state
        ranks = [(state.stats[rank], timing_state(state, rank),
                  state.caches[rank]) for rank in range(state.num_ranks)]
    return [(stats.as_dict(), timing,
             None if cache is None
             else (cache.stats.as_dict(), list(cache._entries)))
            for stats, timing, cache in ranks]


def reference_rank(state, rank=0):
    """A ``Rank`` holding rank ``rank`` of a
    :class:`~repro.core.rank_nmp.RankState` in its current DDR4 state."""
    _, ddr4, counters = timing_state(state, rank)
    (history, last_act, last_act_group, last_col, last_col_group, bus_free,
     banks) = ddr4
    config = state.config
    dram_rank = Rank(config.timing, num_bank_groups=config.num_bank_groups,
                     banks_per_group=config.banks_per_group,
                     rank_index=rank)
    dram_rank._act_history.extend(history)
    dram_rank._last_act_cycle = last_act
    dram_rank._last_act_bank_group = last_act_group
    dram_rank._last_col_cycle = last_col
    dram_rank._last_col_bank_group = last_col_group
    dram_rank.next_data_bus_free = bus_free
    for bank, values, counts in zip(dram_rank.banks, banks, counters):
        (bank.open_row, bank.next_act, bank.next_read,
         bank.next_pre) = values
        bank.activations, bank.reads, bank.precharges = counts
    return dram_rank
