"""Rank-NMP module (Fig. 8(c)).

Each rank of a RecNMP-equipped DIMM has its own rank-NMP module performing
three functions:

1. translate NMP-Insts into low-level DDR command sequences for the DRAM
   devices of that rank (the local command decoder),
2. manage the memory-side RankCache (with LocalityBit bypass),
3. execute the SLS-family datapath: multiply the fetched vector by the
   weight (and dequantisation scalar/bias when needed) and accumulate it
   into the partial-sum register selected by the PsumTag.

The module is modelled at cycle granularity: every instruction is charged
either the RankCache access latency (on a hit) or the DRAM access latency
derived from the rank's DDR4 timing state (on a miss / bypass).  The
arithmetic pipeline (FP32 multipliers and adders, Table I) is overlapped
with memory reads, so it only contributes when it is the bottleneck.

The stream arrives as columns, never as instruction objects.  PsumTag
accumulation is modelled by its latency only; the pooled values are the
functional operators' (:mod:`repro.dlrm.operators`).

The rank-NMPs are not objects: a :class:`RankState` keeps the DDR4 bank
and rank state (:class:`~repro.dram.timing.DDR4State`), RankCache and
counters of every rank of a channel (a
:class:`~repro.core.processing_unit.RecNMPChannel`) as flat lists, and
:func:`execute_segments` runs any number of rank streams over it in one
loop.
"""

from dataclasses import dataclass, field

import numpy as np

from repro.cache.rank_cache import RankCache
from repro.core import kernels as _kernels
from repro.core.instruction import check_vector_size_bytes
from repro.dram.timing import DDR4_2400, NEVER, DDR4State


@dataclass
class RankNMPConfig:
    """Configuration of one rank-NMP module.

    Latencies follow Table I: RankCache access 1 cycle, FP32 adder 3 cycles,
    FP32 multiplier 4 cycles (all in DRAM cycles at the DIMM buffer clock).
    """

    timing: object = field(default_factory=lambda: DDR4_2400)
    use_cache: bool = True
    cache_capacity_bytes: int = 128 * 1024
    vector_size_bytes: int = 64
    cache_latency_cycles: int = 1
    adder_latency_cycles: int = 3
    multiplier_latency_cycles: int = 4
    num_bank_groups: int = 4
    banks_per_group: int = 4
    columns_per_row: int = 128

    def __post_init__(self):
        for name in ("num_bank_groups", "banks_per_group",
                     "columns_per_row"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be >= 1, got %r"
                                 % (name, getattr(self, name)))
        for name in ("adder_latency_cycles", "multiplier_latency_cycles"):
            if getattr(self, name) < 0:
                raise ValueError("%s must be >= 0, got %r"
                                 % (name, getattr(self, name)))
        if self.cache_capacity_bytes <= 0:
            raise ValueError("cache_capacity_bytes must be positive")
        check_vector_size_bytes(self.vector_size_bytes)


@dataclass
class RankNMPStats:
    """Counters of one rank-NMP module."""

    instructions: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_bypasses: int = 0
    dram_reads: int = 0
    activations: int = 0
    busy_cycles: int = 0
    bytes_from_dram: int = 0
    bytes_from_cache: int = 0

    @property
    def cache_hit_rate(self):
        total = self.cache_hits + self.cache_misses + self.cache_bypasses
        if not total:
            return 0.0
        return self.cache_hits / total

    def as_dict(self):
        return {
            "instructions": self.instructions,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_bypasses": self.cache_bypasses,
            "dram_reads": self.dram_reads,
            "activations": self.activations,
            "busy_cycles": self.busy_cycles,
            "bytes_from_dram": self.bytes_from_dram,
            "bytes_from_cache": self.bytes_from_cache,
            "cache_hit_rate": self.cache_hit_rate,
        }


class RankState(DDR4State):
    """DDR4 timing state, caches and counters of ``num_ranks`` rank-NMPs.

    A :class:`~repro.dram.timing.DDR4State` whose ``banks_per_rank`` is
    the configured bank groups times banks per group, plus per bank the
    ``activations`` / ``reads`` / ``precharges`` counters and per rank
    the ``current`` cycle, the RankCache (None without one), the
    :class:`RankNMPStats` and, under the flat kernel flavors, the
    :class:`~repro.core.kernels.FlatRankKernel`, with every column an
    int64 array.
    """

    BANK_FIELDS = DDR4State.BANK_FIELDS + (
        ("activations", 0), ("reads", 0), ("precharges", 0))
    RANK_FIELDS = DDR4State.RANK_FIELDS + (("current", 0),)

    def __init__(self, config, num_ranks):
        self.config = config
        self.timing_params = config.timing.kernel_params()
        self.cache_latency = config.cache_latency_cycles
        self.caches = [
            RankCache(capacity_bytes=config.cache_capacity_bytes,
                      vector_size_bytes=config.vector_size_bytes,
                      access_latency_cycles=config.cache_latency_cycles)
            if config.use_cache else None
            for _ in range(num_ranks)]
        self.stats = [RankNMPStats() for _ in range(num_ranks)]
        # Flat command-issue kernels for the numba and flat-python
        # flavors; None under python, where execute_segments runs the
        # list loop.
        kernels = [_kernels.make_rank_kernel(cache)
                   for cache in self.caches]
        self.kernels = kernels if kernels[0] is not None else None
        self.timing_array = np.array(self.timing_params, dtype=np.int64)
        super().__init__(num_ranks,
                         config.num_bank_groups * config.banks_per_group)

    def _column(self, values):
        return values if self.kernels is None \
            else np.array(values, dtype=np.int64)

    @property
    def takes_arrays(self):
        """True when :func:`execute_segments` wants int64 array columns
        (a flat kernel is bound), False when it wants plain lists."""
        return self.kernels is not None

    def reset(self, rank):
        """Refill rank ``rank``'s timing state, empty its cache and zero
        its statistics."""
        super().reset(rank)
        cache = self.caches[rank]
        if cache is not None:
            cache.flush()
            cache.reset_stats()
        self.stats[rank] = RankNMPStats()
        if self.kernels is not None:
            self.kernels[rank].reset()


def execute_segments(state, columns, segments, base, reorder_window=16):
    """Run rank streams over ``state``; returns the largest last
    completion cycle among them.

    ``columns`` are eight aligned per-instruction columns: Daddr, burst
    count, datapath latency (adder, plus the multiplier when weighted),
    LocalityBit, arrival offset, bank group, flat bank (indexed as the
    state's banks) and row -- plain lists, or int64 arrays when
    ``state.takes_arrays``.  ``segments`` lists ``(rank, begin, end)``
    triples: rank ``rank`` runs the column rows ``begin`` to ``end`` in
    that order, each arriving at ``base`` plus its offset; the ranks
    of a packet's segments run concurrently, each from its own current
    cycle.  Each segment's offsets never decrease: an instruction reaches
    its rank no earlier than the one issued before it.

    Each rank-NMP issues its stream FR-FCFS-style within a
    ``reorder_window``: among the oldest pending instructions, the one
    whose first command can issue earliest goes first (ties keep the
    oldest).  Each iteration picks one window member, then executes it:
    a RankCache lookup (the LocalityBit decides allocation on a miss),
    the DDR command sequence unless it hit, and the datapath latency
    into its PsumTag register.

    The selection is cycle-identical to evaluating each window member's
    earliest first-command cycle (the ``estimated_start`` spec in
    ``tests/test_core_rank_dimm_nmp.py``) on every iteration, but avoids
    that quadratic re-computation: per-bank readiness is read once per
    member from the state lists, the rank-level ACT and RD floors are
    computed for the last command's bank group and for any other one
    only after an instruction that touched DRAM (nothing else changes
    them), and the first member whose earliest possible start already
    matches or exceeds the best estimate ends the scan, because every
    later window member starts no earlier.

    Every command issues at its earliest legal cycle under the bank
    (tRCD, tRAS, tRC, tRP, tRTP, tCCD_L) and rank (tRRD_S/L, tFAW,
    tCCD_S/L, the rank's data bus) constraints, so no legality re-check
    is needed.  Each rank's scalars, the timing parameters and the
    counters live in locals for the whole segment and are written back
    once at its end.  ``tests/rank_nmp_reference.py`` keeps the per-rank
    loop over ``Rank``/``Bank`` objects this replaced, as the oracle.
    """
    window_size = reorder_window if reorder_window > 1 else 1
    if state.kernels is not None:
        last = None
        for rank, begin, end in segments:
            completion = state.kernels[rank].execute(
                state, columns, rank, begin, end, base, window_size)
            if last is None or completion > last:
                last = completion
        return last
    (daddrs, vsizes, computes, localities, offsets, bank_groups, flats,
     rows) = columns
    open_rows = state.open_row
    next_acts = state.next_act
    next_reads = state.next_read
    next_pres = state.next_pre
    bank_activations = state.activations
    bank_reads = state.reads
    bank_precharges = state.precharges
    faw_ring = state.faw_ring
    faw_slots = state.faw_slot
    last_acts = state.last_act
    last_act_groups = state.last_act_group
    last_cols = state.last_col
    last_col_groups = state.last_col_group
    bus_frees = state.bus_free
    currents = state.current
    caches = state.caches
    all_stats = state.stats
    (tRP, tRCD, tCL, tBL, tCCD_S, tCCD_L, tRRD_S, tRRD_L, tFAW, tRAS,
     tRC, tRTP) = state.timing_params
    cache_latency = state.cache_latency
    burst_step = tCCD_L if tCCD_L > tBL else tBL
    packet_last = None
    for rank, begin, end in segments:
        # Rank scalars.  An ACT waits for the fourth-last ACT plus tFAW.
        ring = 4 * rank
        faw_slot = faw_slots[rank]
        faw_ready = faw_ring[ring + faw_slot] + tFAW
        last_act = last_acts[rank]
        last_act_group = last_act_groups[rank]
        last_col = last_cols[rank]
        last_col_group = last_col_groups[rank]
        bus_free = bus_frees[rank]
        current = currents[rank]
        cache = caches[rank]
        if cache is not None:
            entries = cache._entries
            capacity = cache.num_entries
            move_to_end = entries.move_to_end
            popitem = entries.popitem
        else:
            entries = None
        hits = misses = bypasses = evictions = 0
        activations = dram_reads = busy = dram_vsizes = cache_vsizes = 0
        last_completion = current
        window = list(range(begin, min(begin + window_size, end)))
        next_index = begin + len(window)
        stale = True
        while window:
            if stale:
                # The rank-level floors of a command's earliest cycle, for
                # a bank group equal to / other than that of the rank's
                # last ACT or column command: tFAW and tRRD for an ACT,
                # tCCD and the data bus for a RD.  Only an instruction
                # that touched DRAM changes them.
                act_same = last_act + tRRD_L
                act_other = last_act + tRRD_S
                if faw_ready > act_same:
                    act_same = faw_ready
                if faw_ready > act_other:
                    act_other = faw_ready
                rd_same = last_col + tCCD_L
                rd_other = last_col + tCCD_S
                bus = bus_free - tCL
                if bus > rd_same:
                    rd_same = bus
                if bus > rd_other:
                    rd_other = bus
                stale = False
            best_index = window[0]
            best_estimate = NEVER
            for index in window:
                arrival = base + offsets[index]
                start = arrival if arrival > current else current
                if start >= best_estimate:
                    # estimate >= start, so this member cannot win (ties
                    # keep the earliest window position); with arrivals
                    # that never decrease, no later member can either.
                    break
                if entries is not None and localities[index] and \
                        daddrs[index] in entries:
                    estimate = start
                else:
                    flat = flats[index]
                    open_row = open_rows[flat]
                    if open_row == rows[index]:
                        ready = next_reads[flat]
                        floor = rd_same \
                            if bank_groups[index] == last_col_group \
                            else rd_other
                        if floor > ready:
                            ready = floor
                    elif open_row < 0:
                        ready = next_acts[flat]
                        floor = act_same \
                            if bank_groups[index] == last_act_group \
                            else act_other
                        if floor > ready:
                            ready = floor
                    else:
                        ready = next_pres[flat]
                    estimate = start if start > ready else ready
                if estimate < best_estimate:
                    best_estimate = estimate
                    best_index = index
                    if estimate <= current:
                        # estimate >= start >= current for every member
                        # and ties keep the earliest position: already
                        # won.
                        break
            index = best_index
            window.remove(index)
            if next_index < end:
                window.append(next_index)
                next_index += 1
            # Execute the pick: RankCache lookup (LocalityBit decides
            # allocation on a miss), else the DDR command sequence.
            vsize = vsizes[index]
            arrival = base + offsets[index]
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
                flat = flats[index]
                row = rows[index]
                cycle = start
                commands = 0
                first_issue = None
                # The rank command decoder replays the compressed DDR cmd
                # field; a conflicting open row forces PRE+ACT even if
                # the tag omitted them (the host-side tags are hints
                # based on consecutive addresses).
                open_row = open_rows[flat]
                if open_row != row:
                    if open_row >= 0:
                        ready = next_pres[flat]
                        if ready > cycle:
                            cycle = ready
                        bank_precharges[flat] += 1
                        value = cycle + tRP
                        if value > next_acts[flat]:
                            next_acts[flat] = value
                        commands = 1
                        first_issue = cycle
                    ready = next_acts[flat]
                    floor = act_same if bank_group == last_act_group \
                        else act_other
                    if floor > ready:
                        ready = floor
                    if ready > cycle:
                        cycle = ready
                    open_rows[flat] = row
                    bank_activations[flat] += 1
                    value = cycle + tRCD
                    if value > next_reads[flat]:
                        next_reads[flat] = value
                    value = cycle + tRAS
                    if value > next_pres[flat]:
                        next_pres[flat] = value
                    value = cycle + tRC
                    if value > next_acts[flat]:
                        next_acts[flat] = value
                    faw_ring[ring + faw_slot] = cycle
                    faw_slot = (faw_slot + 1) & 3
                    faw_ready = faw_ring[ring + faw_slot] + tFAW
                    last_act = cycle
                    last_act_group = bank_group
                    commands += 1
                    if first_issue is None:
                        first_issue = cycle
                    activations += 1
                # The first burst waits for the bank (tRCD after an ACT,
                # tCCD_L after its last read), tCCD after the rank's last
                # column command and the rank's data bus.  Each further
                # burst of the vector follows the previous one by tCCD_L
                # (same bank group) or tBL (the data bus it just took),
                # whichever is longer: every other constraint is already
                # met at the first burst's cycle.
                ready = next_reads[flat]
                floor = rd_same if bank_group == last_col_group \
                    else rd_other
                if floor > ready:
                    ready = floor
                if ready > cycle:
                    cycle = ready
                if first_issue is None:
                    first_issue = cycle
                if vsize > 1:
                    bursts = vsize
                    cycle += (vsize - 1) * burst_step
                else:
                    bursts = 1
                next_reads[flat] = cycle + tCCD_L
                value = cycle + tRTP
                if value > next_pres[flat]:
                    next_pres[flat] = value
                last_col = cycle
                last_col_group = bank_group
                bus_free = cycle + tCL + tBL
                bank_reads[flat] += bursts
                dram_reads += bursts
                dram_vsizes += vsize
                data_ready = bus_free
                # Memory accesses are pipelined: the next instruction's
                # commands may start once this one's C/A slots are past
                # (first_issue >= start); the bank/rank state above keeps
                # every later command legal (tCCD, tRRD, tFAW, data bus).
                next_free = first_issue + commands + bursts
                stale = True
            # Datapath: weighted multiply (if any) then accumulate into
            # the PsumTag's register.  The pipeline overlaps with the
            # next memory access, so only its depth shows up in the
            # completion.
            completion = data_ready + computes[index]
            if completion > last_completion:
                last_completion = completion
            if next_free > start:
                busy += next_free - start
            current = next_free
        faw_slots[rank] = faw_slot
        last_acts[rank] = last_act
        last_act_groups[rank] = last_act_group
        last_cols[rank] = last_col
        last_col_groups[rank] = last_col_group
        bus_frees[rank] = bus_free
        currents[rank] = current
        stats = all_stats[rank]
        stats.instructions += end - begin
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
        if packet_last is None or last_completion > packet_last:
            packet_last = last_completion
    return packet_last

