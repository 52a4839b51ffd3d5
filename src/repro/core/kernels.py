"""Compiled kernel for the rank-NMP command-issue hot loop.

The DDR command-issue inner loop (windowed FR-FCFS selection fused with
the bank/rank DDR4 state machine) dominates exact simulation time.  It
exists in two bit-identical implementations:

* :meth:`RankNMP._execute_window` -- the readable specification, one
  CPython loop over per-instruction columns (Daddr, burst count,
  weighted flag, LocalityBit, arrival and decoded bank group / bank /
  row) that drives the ``Bank`` objects and the
  RankCache's ``OrderedDict`` directly, with the rank scalars, timing
  parameters and counters held in locals for the whole stream.  It is
  what the ``"python"`` flavor (numba not installed) runs, for every
  entry point.
* :func:`_execute_window_flat` -- the *struct-of-arrays* kernel in this
  module, written in the numba-compilable subset of Python (numpy
  scalars, plain loops, an ``int64 -> int64`` dict for cache residency)
  over flat ``int64`` state.  When :mod:`numba` is importable it is
  ``@njit``-compiled and selected as the ``"numba"`` flavor; the
  un-jitted source stays importable everywhere as the ``"flat-python"``
  flavor, so its semantics are pinned by tests even on hosts without
  numba.

Flavor selection happens once at import: numba is tried and
``"python"`` is the fallback.  Tests can override the selection with
:func:`force_flavor`.

State layout conventions
------------------------
Bank state is seven parallel arrays indexed by flat bank id
(``bank_group * banks_per_group + bank_index``): ``open_row`` (-1 when
closed / precharged), ``next_act`` / ``next_read`` / ``next_pre`` ready
cycles, and the ``activations`` / ``reads`` / ``precharges`` counters.
Rank-level scalars live in an ``RS_SIZE``-slot vector (`RS_*` indices):
a four-slot ring buffer of recent ACT cycles (for tFAW -- slot
``act_count % 4`` holds ``history[-4]`` once four ACTs happened), the
last-ACT / last-column cycle and bank group (-1 for "never"), the
data-bus free cycle and the rank-NMP ``current_cycle``.  Timing
parameters arrive as a ``TP_SIZE`` vector (`TP_*` indices, see
:meth:`DDR4Timing.kernel_params`) and statistics deltas leave through an
``ST_SIZE`` vector (`ST_*` indices).

The kernel mutates those vectors in place and returns the last
completion cycle; :class:`FlatRankKernel` syncs them with the
authoritative ``Bank`` / ``Rank`` / ``RankCache`` objects around every
call, so the object layer stays the source of truth between calls and
the column loop (or direct object inspection in tests) always sees
consistent state.
"""

from collections import Counter

import numpy as np

__all__ = [
    "KERNEL_FLAVOR",
    "active_flavor",
    "force_flavor",
    "make_rank_kernel",
    "pack_decoded",
]

# --------------------------------------------------------------------- #
# Flat-state layout indices                                             #
# --------------------------------------------------------------------- #
#: Rank scalar state (int64): ACT ring buffer + rank-level last/next state.
RS_RING0 = 0
RS_RING1 = 1
RS_RING2 = 2
RS_RING3 = 3
RS_ACT_COUNT = 4
RS_LAST_ACT = 5
RS_LAST_ACT_BG = 6
RS_LAST_COL = 7
RS_LAST_COL_BG = 8
RS_BUS_FREE = 9
RS_CURRENT = 10
RS_SIZE = 11

#: Timing parameter order (matches DDR4Timing.kernel_params()).
(TP_TRP, TP_TRCD, TP_TCL, TP_TBL, TP_TCCD_S, TP_TCCD_L, TP_TRRD_S,
 TP_TRRD_L, TP_TFAW, TP_TRAS, TP_TRC, TP_TRTP) = range(12)
TP_SIZE = 12

#: Statistics deltas produced by one kernel call.
(ST_INSTRUCTIONS, ST_HITS, ST_MISSES, ST_BYPASSES, ST_DRAM_READS,
 ST_ACTIVATIONS, ST_BUSY, ST_BYTES_DRAM, ST_BYTES_CACHE,
 ST_EVICTIONS) = range(10)
ST_SIZE = 10

#: LRU list state of the flat cache (head = LRU victim, tail = MRU).
CS_HEAD, CS_TAIL, CS_USED = range(3)
CS_SIZE = 3

#: A part-memo value below any reachable cycle (parts can be negative:
#: ``next_data_bus_free - tCL`` starts at ``-tCL``).
_PART_UNSET = -(1 << 62)


# --------------------------------------------------------------------- #
# Flavor selection                                                      #
# --------------------------------------------------------------------- #
try:
    from numba import njit as _njit
    from numba import typed as _numba_typed
    from numba.core import types as _numba_types
    KERNEL_FLAVOR = "numba"
except ImportError:
    _njit = None
    _numba_typed = None
    _numba_types = None
    KERNEL_FLAVOR = "python"

#: Test hook: force_flavor() overrides the import-time selection.
_FORCED_FLAVOR = None

#: Flavors force_flavor accepts.  "flat-python" runs the canonical
#: struct-of-arrays kernel *un-jitted* -- slow, but it lets the numba
#: source semantics be pinned by tests on hosts without numba.
_KNOWN_FLAVORS = ("numba", "python", "flat-python")


def active_flavor():
    """The kernel flavor new :class:`RankNMP` instances will bind to."""
    if _FORCED_FLAVOR is not None:
        return _FORCED_FLAVOR
    return KERNEL_FLAVOR


def maybe_jit(fn):
    """Jit ``fn`` when the import-time flavor is numba, else return it.

    The hook other kernel modules (:mod:`repro.serving.event_kernels`)
    use to apply this module's flavor selection to their own flat
    kernels: one numba probe and one ``force_flavor`` override governing
    every compiled kernel in the tree.
    """
    if KERNEL_FLAVOR == "numba":
        return _njit(cache=True)(fn)
    return fn


#: Packet sizes from which the memory controller hands packets to
#: ``RecNMPChannel.execute_packed`` (gathered into issue order) instead
#: of ``execute_packet`` (issue order as a permutation).  Both entry
#: points run the same column routine; the cutover only picks the entry
#: point.  The values are the crossovers measured when the two entry
#: points still ran different code (CPython 3.11).
_NUMBA_PACKED_MIN_INSTRUCTIONS = 24
_CPYTHON_PACKED_MIN_INSTRUCTIONS = 256


def packed_dispatch_min_instructions(flavor=None):
    """Smallest packet the memory controller sends to ``execute_packed``.

    Smaller packets go to ``execute_packet``; 0 means always
    ``execute_packed``.  Inside a :class:`force_flavor` context the
    cutover is 0 -- forcing a flavor exercises its ``execute_packed``
    entry unconditionally.
    """
    if flavor is None:
        if _FORCED_FLAVOR is not None:
            return 0
        flavor = KERNEL_FLAVOR
    if flavor == "numba":
        return _NUMBA_PACKED_MIN_INSTRUCTIONS
    return _CPYTHON_PACKED_MIN_INSTRUCTIONS


class force_flavor:
    """Context manager overriding the kernel flavor (for tests).

    Only affects :class:`RankNMP` objects *constructed inside* the
    context: the kernel binding happens at construction time.
    ``force_flavor("numba")`` raises on hosts without numba.

    Exception-safe: the previous flavor is restored even when the body
    raises, one instance may be entered reentrantly (each exit pops one
    level), and ``__exit__`` without a matching ``__enter__`` is a
    no-op rather than clobbering an enclosing context's override.
    """

    def __init__(self, flavor):
        if flavor not in _KNOWN_FLAVORS:
            raise ValueError("unknown kernel flavor %r; known: %s"
                             % (flavor, ", ".join(_KNOWN_FLAVORS)))
        if flavor == "numba" and _njit is None:
            raise RuntimeError("numba is not importable on this host")
        self.flavor = flavor
        self._previous = []         # one entry per active __enter__

    def __enter__(self):
        global _FORCED_FLAVOR
        self._previous.append(_FORCED_FLAVOR)
        _FORCED_FLAVOR = self.flavor
        return self

    def __exit__(self, exc_type, exc, tb):
        global _FORCED_FLAVOR
        if self._previous:
            _FORCED_FLAVOR = self._previous.pop()
        return False


# --------------------------------------------------------------------- #
# Canonical struct-of-arrays kernel (numba-compilable subset)           #
# --------------------------------------------------------------------- #
def _execute_window_flat(daddrs, vsizes, computes, vbytes, localities,
                         arrivals, flats, bank_groups, rows,
                         window_size, num_bank_groups,
                         b_open, b_next_act, b_next_read, b_next_pre,
                         b_activations, b_reads, b_precharges,
                         rs, tp, st,
                         use_cache, cache_slot, lru_prev, lru_next,
                         lru_key, cs, cache_capacity, cache_latency,
                         exec_order):
    """Windowed FR-FCFS execution over flat int64 state.

    Mirrors ``RankNMP._execute_window`` (selection + memoised
    rank-part estimates, cache lookup, the inlined bank/rank DDR state
    machine, datapath latency, busy accounting) -- one loop, no
    attribute access.
    ``exec_order`` receives the execution permutation so the caller can
    replay LRU effects onto the mirroring ``OrderedDict``.
    """
    count = len(daddrs)
    tRP = tp[TP_TRP]
    tRCD = tp[TP_TRCD]
    tCL = tp[TP_TCL]
    tBL = tp[TP_TBL]
    tCCD_S = tp[TP_TCCD_S]
    tCCD_L = tp[TP_TCCD_L]
    tRRD_S = tp[TP_TRRD_S]
    tRRD_L = tp[TP_TRRD_L]
    tFAW = tp[TP_TFAW]
    tRAS = tp[TP_TRAS]
    tRC = tp[TP_TRC]
    tRTP = tp[TP_TRTP]
    act_count = rs[RS_ACT_COUNT]
    last_act = rs[RS_LAST_ACT]
    last_act_bg = rs[RS_LAST_ACT_BG]
    last_col = rs[RS_LAST_COL]
    last_col_bg = rs[RS_LAST_COL_BG]
    bus_free = rs[RS_BUS_FREE]
    current = rs[RS_CURRENT]
    head = cs[CS_HEAD]
    tail = cs[CS_TAIL]
    used = cs[CS_USED]
    st_instructions = 0
    st_hits = 0
    st_misses = 0
    st_bypasses = 0
    st_dram_reads = 0
    st_activations = 0
    st_busy = 0
    st_bytes_dram = 0
    st_bytes_cache = 0
    st_evictions = 0
    last_completion = current
    window = np.empty(window_size, np.int64)
    win_len = window_size if window_size < count else count
    for i in range(win_len):
        window[i] = i
    next_index = win_len
    # Rank-level earliest-issue components, memoised per bank group and
    # invalidated only when an executed instruction touched DRAM.
    act_part = np.empty(num_bank_groups, np.int64)
    rd_part = np.empty(num_bank_groups, np.int64)
    for g in range(num_bank_groups):
        act_part[g] = _PART_UNSET
        rd_part[g] = _PART_UNSET
    executed = 0
    while win_len > 0:
        best_pos = 0
        best_estimate = 0
        have_best = False
        for pos in range(win_len):
            index = window[pos]
            arrival = arrivals[index]
            start = arrival if arrival > current else current
            if have_best and start >= best_estimate:
                # estimate >= start, so this member cannot win (ties
                # keep the earliest window position).
                continue
            if use_cache != 0 and localities[index] != 0 and \
                    daddrs[index] in cache_slot:
                estimate = start
            else:
                flat = flats[index]
                open_row = b_open[flat]
                bg = bank_groups[index]
                if open_row == rows[index]:
                    ready = b_next_read[flat]
                    part = rd_part[bg]
                    if part == _PART_UNSET:
                        part = bus_free - tCL
                        if last_col >= 0:
                            if bg == last_col_bg:
                                ccd = last_col + tCCD_L
                            else:
                                ccd = last_col + tCCD_S
                            if ccd > part:
                                part = ccd
                        rd_part[bg] = part
                    if part > ready:
                        ready = part
                elif open_row == -1:
                    ready = b_next_act[flat]
                    part = act_part[bg]
                    if part == _PART_UNSET:
                        part = 0
                        if act_count >= 4:
                            faw = rs[act_count % 4] + tFAW
                            if faw > part:
                                part = faw
                        if last_act >= 0:
                            if bg == last_act_bg:
                                rrd = last_act + tRRD_L
                            else:
                                rrd = last_act + tRRD_S
                            if rrd > part:
                                part = rrd
                        act_part[bg] = part
                    if part > ready:
                        ready = part
                else:
                    ready = b_next_pre[flat]
                estimate = start if start > ready else ready
            if not have_best or estimate < best_estimate:
                best_estimate = estimate
                best_pos = pos
                have_best = True
                if best_estimate <= current:
                    # No member can estimate below `current` (estimate >=
                    # start >= current) and ties keep the earliest
                    # position, so this member has already won.
                    break
        index = window[best_pos]
        for pos in range(best_pos, win_len - 1):
            window[pos] = window[pos + 1]
        if next_index < count:
            window[win_len - 1] = next_index
            next_index += 1
        else:
            win_len -= 1
        exec_order[executed] = index
        executed += 1
        daddr = daddrs[index]
        resident = use_cache != 0 and daddr in cache_slot
        # ---- execute (cache lookup + datapath + DDR state machine) ---- #
        arrival = arrivals[index]
        start = arrival if arrival > current else current
        st_instructions += 1
        hit = False
        if use_cache != 0:
            if resident:
                # LRU touch: move the slot to the tail (MRU) position.
                slot = cache_slot[daddr]
                if slot != tail:
                    prev_slot = lru_prev[slot]
                    next_slot_ = lru_next[slot]
                    if prev_slot >= 0:
                        lru_next[prev_slot] = next_slot_
                    else:
                        head = next_slot_
                    lru_prev[next_slot_] = prev_slot
                    lru_prev[slot] = tail
                    lru_next[slot] = -1
                    lru_next[tail] = slot
                    tail = slot
                hit = True
            elif localities[index] != 0:
                st_misses += 1
                if used >= cache_capacity:
                    victim = head
                    del cache_slot[lru_key[victim]]
                    head = lru_next[victim]
                    if head >= 0:
                        lru_prev[head] = -1
                    else:
                        tail = -1
                    st_evictions += 1
                    slot = victim
                else:
                    slot = used
                    used += 1
                lru_key[slot] = daddr
                cache_slot[daddr] = slot
                lru_prev[slot] = tail
                lru_next[slot] = -1
                if tail >= 0:
                    lru_next[tail] = slot
                else:
                    head = slot
                tail = slot
            else:
                st_bypasses += 1
        if hit:
            st_hits += 1
            st_bytes_cache += vbytes[index]
            data_ready = start + cache_latency
            next_free = data_ready
        else:
            # ---- DDR command issue over flat bank state ---- #
            cycle = start
            commands_issued = 0
            first_issue = -1
            row = rows[index]
            flat = flats[index]
            bg = bank_groups[index]
            open_row = b_open[flat]
            if open_row != row:
                if open_row != -1:
                    ready = b_next_pre[flat]
                    if ready > cycle:
                        cycle = ready
                    b_open[flat] = -1
                    b_precharges[flat] += 1
                    value = cycle + tRP
                    if value > b_next_act[flat]:
                        b_next_act[flat] = value
                    commands_issued = 1
                    first_issue = cycle
                ready = b_next_act[flat]
                if act_count >= 4:
                    faw = rs[act_count % 4] + tFAW
                    if faw > ready:
                        ready = faw
                if last_act >= 0:
                    if bg == last_act_bg:
                        rrd = last_act + tRRD_L
                    else:
                        rrd = last_act + tRRD_S
                    if rrd > ready:
                        ready = rrd
                if ready > cycle:
                    cycle = ready
                b_open[flat] = row
                b_activations[flat] += 1
                value = cycle + tRCD
                if value > b_next_read[flat]:
                    b_next_read[flat] = value
                value = cycle + tRAS
                if value > b_next_pre[flat]:
                    b_next_pre[flat] = value
                value = cycle + tRC
                if value > b_next_act[flat]:
                    b_next_act[flat] = value
                rs[act_count % 4] = cycle
                act_count += 1
                last_act = cycle
                last_act_bg = bg
                commands_issued += 1
                if first_issue == -1:
                    first_issue = cycle
                st_activations += 1
            finish = cycle
            bursts = vsizes[index]
            if bursts < 1:
                bursts = 1
            for _ in range(bursts):
                ready = b_next_read[flat]
                if last_col >= 0:
                    if bg == last_col_bg:
                        ccd = last_col + tCCD_L
                    else:
                        ccd = last_col + tCCD_S
                    if ccd > ready:
                        ready = ccd
                bus = bus_free - tCL
                if bus > ready:
                    ready = bus
                if ready > cycle:
                    cycle = ready
                b_reads[flat] += 1
                finish = cycle + tCL + tBL
                value = cycle + tCCD_L
                if value > b_next_read[flat]:
                    b_next_read[flat] = value
                value = cycle + tRTP
                if value > b_next_pre[flat]:
                    b_next_pre[flat] = value
                last_col = cycle
                last_col_bg = bg
                if finish > bus_free:
                    bus_free = finish
                commands_issued += 1
                if first_issue == -1:
                    first_issue = cycle
                st_dram_reads += 1
            st_bytes_dram += vbytes[index]
            data_ready = finish
            next_free = (start if start > first_issue else first_issue) \
                + commands_issued
        completion = data_ready + computes[index]
        if next_free > start:
            st_busy += next_free - start
        current = next_free
        if completion > last_completion:
            last_completion = completion
        if not resident:
            for g in range(num_bank_groups):
                act_part[g] = _PART_UNSET
                rd_part[g] = _PART_UNSET
    rs[RS_ACT_COUNT] = act_count
    rs[RS_LAST_ACT] = last_act
    rs[RS_LAST_ACT_BG] = last_act_bg
    rs[RS_LAST_COL] = last_col
    rs[RS_LAST_COL_BG] = last_col_bg
    rs[RS_BUS_FREE] = bus_free
    rs[RS_CURRENT] = current
    cs[CS_HEAD] = head
    cs[CS_TAIL] = tail
    cs[CS_USED] = used
    st[ST_INSTRUCTIONS] += st_instructions
    st[ST_HITS] += st_hits
    st[ST_MISSES] += st_misses
    st[ST_BYPASSES] += st_bypasses
    st[ST_DRAM_READS] += st_dram_reads
    st[ST_ACTIVATIONS] += st_activations
    st[ST_BUSY] += st_busy
    st[ST_BYTES_DRAM] += st_bytes_dram
    st[ST_BYTES_CACHE] += st_bytes_cache
    st[ST_EVICTIONS] += st_evictions
    return last_completion


def _reorder_window_flat(rows, ranks, window_size, num_ranks):
    """FR-FCFS permutation of :func:`reorder_indices` over flat int64
    arrays (numba-compilable): within the sliding window
    the first member whose row matches the last row issued to its rank
    is hoisted; otherwise the oldest member goes."""
    count = len(rows)
    order = np.empty(count, np.int64)
    win_len = window_size if window_size < count else count
    window = np.empty(win_len, np.int64)
    for i in range(win_len):
        window[i] = i
    next_index = win_len
    last = np.full(num_ranks, -1, np.int64)
    issued = 0
    while win_len > 0:
        chosen_pos = 0
        for pos in range(win_len):
            index = window[pos]
            if last[ranks[index]] == rows[index]:
                chosen_pos = pos
                break
        index = window[chosen_pos]
        for pos in range(chosen_pos, win_len - 1):
            window[pos] = window[pos + 1]
        if next_index < count:
            window[win_len - 1] = next_index
            next_index += 1
        else:
            win_len -= 1
        last[ranks[index]] = rows[index]
        order[issued] = index
        issued += 1
    return order


def _rebuild_lru_flat(keys, cache_slot, lru_prev, lru_next, lru_key, cs):
    """Re-populate the flat LRU from ``keys`` in LRU -> MRU order."""
    head = -1
    tail = -1
    for slot in range(len(keys)):
        key = keys[slot]
        lru_key[slot] = key
        cache_slot[key] = slot
        lru_prev[slot] = tail
        lru_next[slot] = -1
        if tail >= 0:
            lru_next[tail] = slot
        else:
            head = slot
        tail = slot
    cs[CS_HEAD] = head
    cs[CS_TAIL] = tail
    cs[CS_USED] = len(keys)


#: Un-jitted references: importable on every host, pinned by parity
#: tests so the compiled flavor can never silently diverge.
_execute_window_flat_py = _execute_window_flat
_rebuild_lru_flat_py = _rebuild_lru_flat
_reorder_window_flat_py = _reorder_window_flat

if KERNEL_FLAVOR == "numba":
    _execute_window_flat = _njit(cache=True)(_execute_window_flat)
    _rebuild_lru_flat = _njit(cache=True)(_rebuild_lru_flat)
    _reorder_window_flat = _njit(cache=True)(_reorder_window_flat)


def _reorder_window_python(rows, ranks, window_size, num_ranks):
    """CPython twin of :func:`_reorder_window_flat` over plain lists.

    A member can be hoisted only when its row equals the last row issued
    to its rank: that takes another instruction with the same
    ``(rank, row)`` key in the packet, or the row ``-1`` every rank's
    last row starts as.  Only such members are scanned; when none
    matches, the oldest member goes.
    """
    count = len(rows)
    keys = [row * num_ranks + rank for row, rank in zip(rows, ranks)]
    recurring = Counter(keys)
    hoistable = [recurring[key] > 1 or row == -1
                 for key, row in zip(keys, rows)]
    window = list(range(window_size if window_size < count else count))
    candidates = [index for index in window if hoistable[index]]
    next_index = len(window)
    last = [-1] * num_ranks
    order = []
    append = order.append
    while window:
        index = window[0]
        for member in candidates:
            if last[ranks[member]] == rows[member]:
                index = member
                break
        window.remove(index)
        if hoistable[index]:
            candidates.remove(index)
        if next_index < count:
            window.append(next_index)
            if hoistable[next_index]:
                candidates.append(next_index)
            next_index += 1
        last[ranks[index]] = rows[index]
        append(index)
    return order


def reorder_indices(rows, ranks, window_size, num_ranks):
    """FR-FCFS permutation using the active flavor.

    ``rows``/``ranks`` are aligned int64 arrays or int lists (the list
    twin runs on lists; arrays are converted once);
    every rank must be in ``[0, num_ranks)`` (callers validate -- the
    per-rank open-row table is indexed by rank).  Within a sliding
    window of ``window_size`` pending instructions, the oldest one whose
    row matches the last row issued to its rank is hoisted; otherwise
    the oldest goes.  Returns an int64 index array.
    """
    count = len(rows)
    if count <= 2:
        return np.arange(count, dtype=np.int64)
    window_size = window_size if window_size > 1 else 1
    flavor = active_flavor()
    if flavor in ("numba", "flat-python"):
        kernel = _reorder_window_flat if flavor == "numba" \
            else _reorder_window_flat_py
        return kernel(np.asarray(rows, dtype=np.int64),
                      np.asarray(ranks, dtype=np.int64), window_size,
                      num_ranks)
    if isinstance(rows, np.ndarray):
        rows, ranks = rows.tolist(), ranks.tolist()
    return np.asarray(
        _reorder_window_python(rows, ranks, window_size, num_ranks),
        dtype=np.int64)


# --------------------------------------------------------------------- #
# Packing helpers                                                       #
# --------------------------------------------------------------------- #
def pack_decoded(config, daddrs):
    """Vectorised ``(bank_groups, banks, rows)`` decode of a Daddr array."""
    blocks = daddrs // config.columns_per_row
    bank_groups = blocks % config.num_bank_groups
    blocks = blocks // config.num_bank_groups
    banks = blocks % config.banks_per_group
    rows = blocks // config.banks_per_group
    return bank_groups, banks, rows


# --------------------------------------------------------------------- #
# Wrapper class: sync object state around each kernel call              #
# --------------------------------------------------------------------- #
class FlatRankKernel:
    """Struct-of-arrays kernel wrapper (numba-jitted or un-jitted).

    Keeps a persistent flat LRU (``int64 -> slot`` dict plus linked-list
    arrays) mirroring the RankCache's ``OrderedDict``; after every call
    the LRU effects are replayed onto the OrderedDict so the object
    layer stays authoritative, and the flat side is rebuilt from the
    OrderedDict whenever the two disagree on occupancy (e.g. after an
    external ``flush()``).
    """

    def __init__(self, rank_nmp, flavor):
        self.rank_nmp = rank_nmp
        config = rank_nmp.config
        self.adder = config.adder_latency_cycles
        self.multiplier = config.multiplier_latency_cycles
        self.cache_latency = config.cache_latency_cycles
        self.banks_per_group = config.banks_per_group
        self.num_bank_groups = config.num_bank_groups
        self.capacity = (rank_nmp.cache.num_entries
                         if rank_nmp.cache is not None else 0)
        self.timing_params = config.timing.kernel_params()
        if flavor == "numba":
            self.fn = _execute_window_flat
            self.rebuild_fn = _rebuild_lru_flat
            self.dict_factory = lambda: _numba_typed.Dict.empty(  # noqa: E731
                key_type=_numba_types.int64, value_type=_numba_types.int64)
        else:
            self.fn = _execute_window_flat_py
            self.rebuild_fn = _rebuild_lru_flat_py
            self.dict_factory = dict
        capacity = max(1, self.capacity)
        self._cache_slot = self.dict_factory()
        self._lru_prev = np.empty(capacity, np.int64)
        self._lru_next = np.empty(capacity, np.int64)
        self._lru_key = np.empty(capacity, np.int64)
        self._cs = np.zeros(CS_SIZE, np.int64)
        self._cs[CS_HEAD] = -1
        self._cs[CS_TAIL] = -1

    def reset(self):
        """Drop kernel-side state (after RankNMP.reset / cache flush)."""
        self._cache_slot = self.dict_factory()
        self._cs[CS_HEAD] = -1
        self._cs[CS_TAIL] = -1
        self._cs[CS_USED] = 0

    def _sync_cache_in(self):
        """Rebuild the flat LRU when the OrderedDict mirror diverged."""
        cache = self.rank_nmp.cache
        if cache is None:
            return
        entries = cache._entries
        if len(entries) == int(self._cs[CS_USED]):
            return
        self._cache_slot = self.dict_factory()
        keys = np.fromiter(entries, np.int64, len(entries))
        self.rebuild_fn(keys, self._cache_slot, self._lru_prev,
                        self._lru_next, self._lru_key, self._cs)

    def _replay_cache_out(self, exec_order, daddrs, localities):
        """Replay LRU effects of one call onto the OrderedDict mirror."""
        cache = self.rank_nmp.cache
        if cache is None:
            return
        entries = cache._entries
        capacity = self.capacity
        move_to_end = entries.move_to_end
        popitem = entries.popitem
        for i in exec_order.tolist():
            daddr = int(daddrs[i])
            if daddr in entries:
                move_to_end(daddr)
            elif localities[i]:
                if len(entries) >= capacity:
                    popitem(last=False)
                entries[daddr] = None

    def _apply_stats(self, st):
        """Add one call's statistics deltas to the rank-NMP and its
        cache."""
        rank_nmp = self.rank_nmp
        stats = rank_nmp.stats
        stats.instructions += int(st[ST_INSTRUCTIONS])
        stats.cache_hits += int(st[ST_HITS])
        stats.cache_misses += int(st[ST_MISSES])
        stats.cache_bypasses += int(st[ST_BYPASSES])
        stats.dram_reads += int(st[ST_DRAM_READS])
        stats.activations += int(st[ST_ACTIVATIONS])
        stats.busy_cycles += int(st[ST_BUSY])
        stats.bytes_from_dram += int(st[ST_BYTES_DRAM])
        stats.bytes_from_cache += int(st[ST_BYTES_CACHE])
        cache = rank_nmp.cache
        if cache is not None:
            cache_stats = cache.stats
            cache_stats.hits += int(st[ST_HITS])
            cache_stats.misses += int(st[ST_MISSES])
            cache_stats.bypasses += int(st[ST_BYPASSES])
            cache_stats.evictions += int(st[ST_EVICTIONS])

    def execute_arrays(self, daddrs, vsizes, weighted, localities,
                       arrivals, bank_groups, banks, rows, reorder_window):
        """Run one aligned int64/bool column stream through the kernel;
        returns the last completion cycle."""
        rank_nmp = self.rank_nmp
        count = len(daddrs)
        if count == 0:
            return rank_nmp.current_cycle
        if rank_nmp.cache is not None and daddrs.min() < 0:
            raise ValueError("dram_address must be non-negative, got %d"
                             % daddrs.min())
        self._sync_cache_in()
        flats = bank_groups * self.banks_per_group + banks
        computes = self.adder + self.multiplier * weighted.astype(np.int64)
        vbytes = vsizes * 64
        locality_ints = localities.astype(np.uint8)
        rank = rank_nmp.dram_rank
        bank_objs = rank.banks
        num_banks = len(bank_objs)
        b_open = np.empty(num_banks, np.int64)
        b_next_act = np.empty(num_banks, np.int64)
        b_next_read = np.empty(num_banks, np.int64)
        b_next_pre = np.empty(num_banks, np.int64)
        b_activations = np.empty(num_banks, np.int64)
        b_reads = np.empty(num_banks, np.int64)
        b_precharges = np.empty(num_banks, np.int64)
        for i, bank in enumerate(bank_objs):
            open_row = bank.open_row
            b_open[i] = -1 if open_row is None else open_row
            b_next_act[i] = bank.next_act
            b_next_read[i] = bank.next_read
            b_next_pre[i] = bank.next_pre
            b_activations[i] = bank.activations
            b_reads[i] = bank.reads
            b_precharges[i] = bank.precharges
        scalars = rank.kernel_scalars()
        scalars.append(rank_nmp.current_cycle)
        rs = np.asarray(scalars, dtype=np.int64)
        tp = np.asarray(self.timing_params, dtype=np.int64)
        st = np.zeros(ST_SIZE, np.int64)
        exec_order = np.empty(count, np.int64)
        use_cache = 1 if rank_nmp.cache is not None else 0
        window_size = reorder_window if reorder_window > 1 else 1
        last = self.fn(
            daddrs, vsizes, computes, vbytes, locality_ints,
            arrivals, flats, bank_groups, rows,
            window_size, self.num_bank_groups,
            b_open, b_next_act, b_next_read, b_next_pre,
            b_activations, b_reads, b_precharges,
            rs, tp, st,
            use_cache, self._cache_slot, self._lru_prev, self._lru_next,
            self._lru_key, self._cs, max(1, self.capacity),
            self.cache_latency, exec_order)
        for i, bank in enumerate(bank_objs):
            open_row = int(b_open[i])
            bank.open_row = None if open_row < 0 else open_row
            bank.next_act = int(b_next_act[i])
            bank.next_read = int(b_next_read[i])
            bank.next_pre = int(b_next_pre[i])
            bank.activations = int(b_activations[i])
            bank.reads = int(b_reads[i])
            bank.precharges = int(b_precharges[i])
        rank.set_kernel_scalars(rs)
        rank_nmp.current_cycle = int(rs[RS_CURRENT])
        self._replay_cache_out(exec_order, daddrs, localities)
        self._apply_stats(st)
        return int(last)


def make_rank_kernel(rank_nmp):
    """Flat kernel wrapper for one RankNMP under the ``numba`` and
    ``flat-python`` flavors; None under ``python``, where RankNMP runs
    its own column window loop."""
    flavor = active_flavor()
    if flavor in ("numba", "flat-python"):
        return FlatRankKernel(rank_nmp, flavor)
    return None


def describe():
    """One-line kernel status for CLI / benchmark reporting."""
    flavor = active_flavor()
    if flavor == "numba":
        return "numba-jitted bank state machine"
    if flavor == "flat-python":
        return "un-jitted flat kernel source"
    return "RankNMP column loop (numba not installed)"

