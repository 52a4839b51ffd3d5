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
"""

import itertools
import operator
from dataclasses import dataclass, field

import numpy as np

from repro.cache.rank_cache import RankCache
from repro.core import kernels as _kernels
from repro.core.instruction import check_vector_size_bytes
from repro.dram.rank import Rank
from repro.dram.timing import DDR4_2400

#: Stand-in for a rank's "no ACT / column command yet": far enough back
#: that the tRRD / tCCD constraint derived from it never binds.
_NEVER = -(1 << 62)

#: Initial best estimate of a window scan, beyond any reachable cycle.
_UNREACHED = 1 << 62


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


class RankNMP:
    """Cycle-approximate model of one rank-NMP module."""

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
        # Flat command-issue kernel for the numba and flat-python
        # flavors; None otherwise, in which case every stream runs the
        # column window loop below (the readable spec the kernel is
        # tested against).
        self._kernel = _kernels.make_rank_kernel(self)

    # ------------------------------------------------------------------ #
    # Execution                                                          #
    # ------------------------------------------------------------------ #
    def execute_packed(self, packed, arrival_cycles, reorder_window=16):
        """Execute one instruction stream (a
        :class:`~repro.core.instruction.PackedInstructions` plus each
        instruction's arrival cycle); returns the last completion cycle.

        Instructions are issued FR-FCFS-style within a small reorder window
        (the host-side memory controller performs this reordering inside a
        packet per the paper): among the ``reorder_window`` oldest pending
        instructions, the one whose bank can accept a command earliest goes
        first.  Correctness is unaffected because each pooling accumulates
        into its own PsumTag register.
        """
        daddrs = packed.daddrs
        if len(arrival_cycles) != len(daddrs):
            raise ValueError("arrival_cycles must match instructions")
        if not len(daddrs):
            return self.current_cycle
        columns = [daddrs, packed.vsizes, packed.weighted, packed.localities,
                   np.asarray(arrival_cycles, np.int64)]
        columns.extend(_kernels.pack_decoded(self.config, daddrs))
        if not self.takes_arrays:
            columns = [column.tolist() for column in columns]
        return self.execute_columns(columns, reorder_window)

    @property
    def takes_arrays(self):
        """True when :meth:`execute_columns` wants numpy arrays (a flat
        kernel is bound), False when it wants plain lists."""
        return self._kernel is not None

    def execute_columns(self, columns, reorder_window=16):
        """Run one instruction stream given as eight aligned columns.

        The columns are, in order: Daddr, burst count, weighted flag,
        LocalityBit, arrival cycle, and the decoded bank group,
        bank and row.  They are int64/bool arrays for the bound flat
        kernel, or plain lists for the column window loop -- see
        :attr:`takes_arrays`.  Returns the last completion cycle.
        """
        if self._kernel is not None:
            return self._kernel.execute_arrays(*columns, reorder_window)
        return self._execute_window(*columns, reorder_window)

    def _execute_window(self, daddrs, vsizes, weighted, localities,
                        arrival_cycles, bank_groups, bank_indices, rows,
                        reorder_window):
        """The FR-FCFS window loop over aligned per-instruction columns.

        Each iteration picks one window member, then executes it: a
        RankCache lookup (the LocalityBit decides allocation on a miss),
        the DDR command sequence unless it hit, and the datapath latency
        into its PsumTag register.

        The selection is cycle-identical to evaluating each window
        member's earliest first-command cycle (the ``estimated_start``
        spec in ``tests/test_core_rank_dimm_nmp.py``) on every
        iteration, but avoids that quadratic re-computation: per-bank
        command/readiness is read once per member from the live bank state,
        the rank-level ACT/RD components are memoised per bank group and
        invalidated lazily (only an instruction that touched DRAM can
        change them), and members whose earliest possible start already
        matches or exceeds the best estimate are skipped outright -- or,
        when the stream's arrivals never decrease, end the scan, because
        every later window member starts no earlier.

        The command issue is the bank/rank state machine of
        :class:`~repro.dram.rank.Rank` / :class:`~repro.dram.bank.Bank`
        inlined: every command is issued at its earliest legal cycle, so
        the legality re-checks of the generic ``issue`` path are redundant
        by construction.  The rank scalars (ACT history, last ACT / column
        cycle and bank group, data-bus free cycle), the timing parameters
        and every counter live in locals for the whole stream and are
        written back once at the end.  This is the readable
        specification the flat kernel
        (:func:`~repro.core.kernels._execute_window_flat`) is pinned to.
        """
        count = len(daddrs)
        current = self.current_cycle
        if not count:
            return current
        cache = self.cache
        if cache is not None and min(daddrs) < 0:
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
        # Rank scalars.  An ACT waits for the fourth-last ACT plus tFAW;
        # "never" is a cycle so far back that the tRRD / tCCD constraint
        # it yields never binds.
        history = rank._act_history
        faw_ready = history[-4] + tFAW if len(history) >= 4 else 0
        last_act = rank._last_act_cycle
        if last_act is None:
            last_act = _NEVER
        last_act_group = rank._last_act_bank_group
        last_col = rank._last_col_cycle
        if last_col is None:
            last_col = _NEVER
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
        arrivals_sorted = all(map(operator.le, arrival_cycles,
                                  itertools.islice(arrival_cycles, 1, None)))
        hits = misses = bypasses = evictions = 0
        activations = dram_reads = busy = dram_vsizes = cache_vsizes = 0
        last_completion = current
        window_size = reorder_window if reorder_window > 1 else 1
        window = list(range(window_size if window_size < count else count))
        next_index = len(window)
        # Rank-level earliest-issue components, memoised per bank group and
        # cleared whenever an executed instruction touched DRAM (cache hits
        # leave both the rank and every bank untouched).
        act_part = {}
        rd_part = {}
        while window:
            best_index = window[0]
            best_estimate = _UNREACHED
            for index in window:
                arrival = arrival_cycles[index]
                start = arrival if arrival > current else current
                if start >= best_estimate:
                    # estimate >= start, so this member cannot win (ties
                    # keep the earliest window position); with sorted
                    # arrivals no later member can either.
                    if arrivals_sorted:
                        break
                    continue
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
                        # estimate >= start >= current for every member
                        # and ties keep the earliest position: already won.
                        break
            index = best_index
            window.remove(index)
            if next_index < count:
                window.append(next_index)
                next_index += 1
            # Execute the pick: RankCache lookup (LocalityBit decides
            # allocation on a miss), else the DDR command sequence.
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
                # The rank command decoder replays the compressed DDR cmd
                # field; a conflicting open row forces PRE+ACT even if the
                # tag omitted them (the host-side tags are hints based on
                # consecutive addresses).
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
                # Memory accesses are pipelined: the next instruction's
                # commands may start once this one's C/A slots are past
                # (first_issue >= start); the bank/rank state above keeps
                # every later command legal (tCCD, tRRD, tFAW, data bus).
                next_free = first_issue + commands + bursts
                act_part.clear()
                rd_part.clear()
            # Datapath: weighted multiply (if any) then accumulate into the
            # PsumTag's register.  The pipeline overlaps with the next
            # memory access, so only its depth shows up in the completion.
            completion = data_ready + (adder_multiplier if weighted[index]
                                       else adder)
            if completion > last_completion:
                last_completion = completion
            if next_free > start:
                busy += next_free - start
            current = next_free
        rank._last_act_cycle = None if last_act == _NEVER else last_act
        rank._last_act_bank_group = last_act_group
        rank._last_col_cycle = None if last_col == _NEVER else last_col
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

    # ------------------------------------------------------------------ #
    def reset(self):
        """Reset timing state, cache contents and statistics."""
        self.dram_rank = Rank(self.config.timing,
                              num_bank_groups=self.config.num_bank_groups,
                              banks_per_group=self.config.banks_per_group,
                              rank_index=self.rank_index)
        if self.cache is not None:
            self.cache.flush()
            self.cache.reset_stats()
        self.stats = RankNMPStats()
        self.current_cycle = 0
        if self._kernel is not None:
            self._kernel.reset()
