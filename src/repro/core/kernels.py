"""Compiled kernel for the rank-NMP command-issue hot loop.

The DDR command-issue inner loop (windowed FR-FCFS selection fused with
the bank/rank DDR4 state machine) dominates exact simulation time.  It
exists in two bit-identical implementations over one flat state layout
(:class:`~repro.core.rank_nmp.RankState`, see State layout below):

* :func:`~repro.core.rank_nmp.execute_segments` -- the readable loop,
  CPython over plain lists: per-instruction columns (Daddr, burst
  count, datapath latency, LocalityBit, arrival, decoded bank group,
  flat bank and row) and the state's per-bank and per-rank lists, with
  each RankCache's ``OrderedDict`` updated in place.  It is what the
  ``"python"`` flavor (numba not installed) runs, for every entry
  point, and it covers every rank of a packet in one pass.
* :func:`_execute_window_flat` -- the same loop for one rank's stream
  in the numba-compilable subset of Python (numpy scalars, plain loops,
  an ``int64 -> int64`` dict for cache residency) over the same state
  held as int64 arrays.  When :mod:`numba` is importable it is
  ``@njit``-compiled and selected as the ``"numba"`` flavor; the
  un-jitted source stays importable everywhere as the ``"flat-python"``
  flavor, so its semantics are pinned by tests even on hosts without
  numba.

Flavor selection happens once at import: numba is tried and
``"python"`` is the fallback.  Tests can override the selection with
:func:`force_flavor`.

State layout
------------
The DDR4 bank and rank columns are those of
:class:`~repro.dram.timing.DDR4State`, which describes them; a
:class:`~repro.core.rank_nmp.RankState` adds the per-bank activation /
read / precharge counters and the rank-NMP's per-rank current cycle,
all held as int64 arrays under the flat flavors.  Timing parameters
arrive as an int64 array in the order of
:meth:`DDR4Timing.kernel_params` and statistics deltas leave the kernel
through an ``ST_SIZE`` vector (``ST_*`` indices).

The kernel mutates the state arrays in place and returns the last
completion cycle.  :class:`FlatRankKernel` keeps, per rank, a flat LRU
mirroring the RankCache's ``OrderedDict`` and replays each call's LRU
effects onto it, so the cache object stays authoritative.
"""

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
#: Statistics deltas produced by one kernel call.
(ST_INSTRUCTIONS, ST_HITS, ST_MISSES, ST_BYPASSES, ST_DRAM_READS,
 ST_ACTIVATIONS, ST_BUSY, ST_BYTES_DRAM, ST_BYTES_CACHE,
 ST_EVICTIONS) = range(10)
ST_SIZE = 10

#: LRU list state of the flat cache (head = LRU victim, tail = MRU).
CS_HEAD, CS_TAIL, CS_USED = range(3)
CS_SIZE = 3


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
    """The kernel flavor in force now: the :func:`force_flavor`
    override, else the import-time selection."""
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


def packed_dispatch_min_instructions():
    """Smallest packet the memory controller sends to ``execute_packed``.

    Smaller packets go to ``execute_packet``; 0 means always
    ``execute_packed``.  The import-time flavor picks the cutover
    (numba or CPython).  Inside a :class:`force_flavor` context it is 0
    -- forcing a flavor exercises its ``execute_packed`` entry
    unconditionally.
    """
    if _FORCED_FLAVOR is not None:
        return 0
    if KERNEL_FLAVOR == "numba":
        return _NUMBA_PACKED_MIN_INSTRUCTIONS
    return _CPYTHON_PACKED_MIN_INSTRUCTIONS


class force_flavor:
    """Context manager overriding the kernel flavor (for tests).

    A :class:`~repro.core.rank_nmp.RankState` (so a ``RecNMPChannel``)
    binds its kernels and column form when built, so only one built
    inside the context runs the forced flavor, and keeps it.
    :func:`reorder_packets`, the ``describe`` helpers and the event
    kernels' ``fifo_queue_times``, ``edf_queue_times`` and
    ``admission_mask`` read the flavor on every call instead, and
    :func:`packed_dispatch_min_instructions` is 0 under any override.
    ``force_flavor("numba")`` raises ``RuntimeError`` without numba.

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
def _execute_window_flat(daddrs, vsizes, computes, localities, offsets,
                         bank_groups, flats, rows, begin, end, base,
                         window_size, rank,
                         open_rows, next_acts, next_reads, next_pres,
                         activations, reads, precharges,
                         faw_ring, faw_slots, last_acts, last_act_groups,
                         last_cols, last_col_groups, bus_frees, currents,
                         tp, st, use_cache, cache_slot, lru_prev, lru_next,
                         lru_key, cs, cache_capacity, cache_latency,
                         exec_order):
    """Windowed FR-FCFS execution of rank ``rank``'s stream, the column
    rows ``begin`` to ``end`` (arrival ``base + offsets[i]``), over the
    flat int64 state arrays.

    Mirrors :func:`~repro.core.rank_nmp.execute_segments` (selection
    over the rank-level floors, cache lookup, the bank/rank DDR state
    machine, datapath latency, busy accounting) -- one loop, no
    attribute access.  ``exec_order`` receives the execution order so
    the caller can replay LRU effects onto the mirroring ``OrderedDict``.
    """
    count = end - begin
    tRP = tp[0]
    tRCD = tp[1]
    tCL = tp[2]
    tBL = tp[3]
    tCCD_S = tp[4]
    tCCD_L = tp[5]
    tRRD_S = tp[6]
    tRRD_L = tp[7]
    tFAW = tp[8]
    tRAS = tp[9]
    tRC = tp[10]
    tRTP = tp[11]
    burst_step = tCCD_L if tCCD_L > tBL else tBL
    ring = 4 * rank
    faw_slot = faw_slots[rank]
    faw_ready = faw_ring[ring + faw_slot] + tFAW
    last_act = last_acts[rank]
    last_act_bg = last_act_groups[rank]
    last_col = last_cols[rank]
    last_col_bg = last_col_groups[rank]
    bus_free = bus_frees[rank]
    current = currents[rank]
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
        window[i] = begin + i
    next_index = begin + win_len
    executed = 0
    act_same = act_other = rd_same = rd_other = current
    stale = True
    while win_len > 0:
        if stale:
            # Rank-level ACT / RD floors for the last command's bank group
            # and for any other; only a DRAM access changes them.
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
        best_pos = 0
        best_estimate = 0
        have_best = False
        for pos in range(win_len):
            index = window[pos]
            arrival = base + offsets[index]
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
                open_row = open_rows[flat]
                bg = bank_groups[index]
                if open_row == rows[index]:
                    ready = next_reads[flat]
                    if bg == last_col_bg:
                        floor = rd_same
                    else:
                        floor = rd_other
                    if floor > ready:
                        ready = floor
                elif open_row == -1:
                    ready = next_acts[flat]
                    if bg == last_act_bg:
                        floor = act_same
                    else:
                        floor = act_other
                    if floor > ready:
                        ready = floor
                else:
                    ready = next_pres[flat]
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
        if next_index < end:
            window[win_len - 1] = next_index
            next_index += 1
        else:
            win_len -= 1
        exec_order[executed] = index
        executed += 1
        daddr = daddrs[index]
        resident = use_cache != 0 and daddr in cache_slot
        # ---- execute (cache lookup + datapath + DDR state machine) ---- #
        arrival = base + offsets[index]
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
            st_bytes_cache += vsizes[index] * 64
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
            open_row = open_rows[flat]
            if open_row != row:
                if open_row != -1:
                    ready = next_pres[flat]
                    if ready > cycle:
                        cycle = ready
                    open_rows[flat] = -1
                    precharges[flat] += 1
                    value = cycle + tRP
                    if value > next_acts[flat]:
                        next_acts[flat] = value
                    commands_issued = 1
                    first_issue = cycle
                ready = next_acts[flat]
                if bg == last_act_bg:
                    floor = act_same
                else:
                    floor = act_other
                if floor > ready:
                    ready = floor
                if ready > cycle:
                    cycle = ready
                open_rows[flat] = row
                activations[flat] += 1
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
                faw_slot = (faw_slot + 1) % 4
                faw_ready = faw_ring[ring + faw_slot] + tFAW
                last_act = cycle
                last_act_bg = bg
                commands_issued += 1
                if first_issue == -1:
                    first_issue = cycle
                st_activations += 1
            # First burst: bank, tCCD and data-bus waits; each further
            # burst of the vector follows by max(tCCD_L, tBL).
            ready = next_reads[flat]
            if bg == last_col_bg:
                floor = rd_same
            else:
                floor = rd_other
            if floor > ready:
                ready = floor
            if ready > cycle:
                cycle = ready
            if first_issue == -1:
                first_issue = cycle
            bursts = vsizes[index]
            if bursts < 1:
                bursts = 1
            cycle += (bursts - 1) * burst_step
            reads[flat] += bursts
            next_reads[flat] = cycle + tCCD_L
            value = cycle + tRTP
            if value > next_pres[flat]:
                next_pres[flat] = value
            last_col = cycle
            last_col_bg = bg
            bus_free = cycle + tCL + tBL
            commands_issued += bursts
            st_dram_reads += bursts
            st_bytes_dram += vsizes[index] * 64
            data_ready = bus_free
            next_free = (start if start > first_issue else first_issue) \
                + commands_issued
        completion = data_ready + computes[index]
        if next_free > start:
            st_busy += next_free - start
        current = next_free
        if completion > last_completion:
            last_completion = completion
        if not resident:
            stale = True
    faw_slots[rank] = faw_slot
    last_acts[rank] = last_act
    last_act_groups[rank] = last_act_bg
    last_cols[rank] = last_col
    last_col_groups[rank] = last_col_bg
    bus_frees[rank] = bus_free
    currents[rank] = current
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
    """FR-FCFS permutation of one packet (see :func:`reorder_packets`)
    over flat int64 arrays (numba-compilable): within the sliding window
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


def _reorder_window_python(rows, ranks, hoistable, begin, end,
                           window_size, num_ranks, order):
    """CPython twin of :func:`_reorder_window_flat` over plain lists.

    Reorders the packet held in rows ``begin`` to ``end`` of the
    dispatch-wide lists and appends its indices to ``order`` in issue
    order.  A member can be hoisted only when its row equals the last
    row issued to its rank: that takes another instruction with the same
    ``(rank, row)`` key in the packet, or the row ``-1`` every rank's
    last row starts as -- ``hoistable`` flags them (see
    :func:`_hoistable`).  Only such members are scanned; when none
    matches, the oldest member goes.
    """
    window = list(range(begin, min(begin + window_size, end)))
    candidates = [index for index in window if hoistable[index]]
    next_index = begin + len(window)
    last = [-1] * num_ranks
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
        if next_index < end:
            window.append(next_index)
            if hoistable[next_index]:
                candidates.append(next_index)
            next_index += 1
        last[ranks[index]] = rows[index]
        append(index)


def _hoistable(rows, ranks, packets):
    """Per instruction (int64 arrays): True when its ``(packet, rank,
    row)`` key recurs in the dispatch or its row is ``-1``."""
    keyed = np.lexsort((rows, ranks, packets))
    rows, ranks, packets = rows[keyed], ranks[keyed], packets[keyed]
    repeats = ((rows[1:] == rows[:-1]) & (ranks[1:] == ranks[:-1])
               & (packets[1:] == packets[:-1]))
    recurring = np.zeros(len(rows), dtype=bool)
    recurring[1:] = repeats
    recurring[:-1] |= repeats
    hoistable = np.empty_like(recurring)
    hoistable[keyed] = recurring | (rows == -1)
    return hoistable


def reorder_packets(rows, ranks, bounds, window_size, num_ranks):
    """FR-FCFS issue order of a dispatch's packets, using the active
    flavor.

    ``rows``/``ranks`` are aligned int64 arrays over the instructions of
    every packet, back to back: packet ``p`` holds the rows
    ``bounds[p]`` to ``bounds[p + 1]`` (``bounds`` an int list).  Every
    rank must be in ``[0, num_ranks)`` (callers validate -- the per-rank
    open-row table is indexed by rank).  Within a sliding window of
    ``window_size`` pending instructions of one packet, the oldest one
    whose row matches the last row issued to its rank is hoisted;
    otherwise the oldest goes.  Packets of at most two instructions
    issue in packet order.  Returns the int64 array of instruction
    indices in issue order; each packet keeps its own span.
    """
    window_size = window_size if window_size > 1 else 1
    spans = list(zip(bounds[:-1], bounds[1:]))
    flavor = active_flavor()
    if flavor in ("numba", "flat-python"):
        kernel = _reorder_window_flat if flavor == "numba" \
            else _reorder_window_flat_py
        parts = [begin + kernel(rows[begin:end], ranks[begin:end],
                                window_size, num_ranks)
                 if end - begin > 2 else np.arange(begin, end)
                 for begin, end in spans]
        return np.concatenate(parts).astype(np.int64) if parts \
            else np.zeros(0, np.int64)
    packets = np.repeat(np.arange(len(spans)), np.diff(bounds))
    hoistable = _hoistable(rows, ranks, packets).tolist()
    rows, ranks = rows.tolist(), ranks.tolist()
    order = []
    for begin, end in spans:
        if end - begin > 2:
            _reorder_window_python(rows, ranks, hoistable, begin, end,
                                   window_size, num_ranks, order)
        else:
            order.extend(range(begin, end))
    return np.array(order, dtype=np.int64)


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
# Per-rank LRU mirror around each kernel call                           #
# --------------------------------------------------------------------- #
class FlatRankKernel:
    """Struct-of-arrays kernel binding of one rank (numba-jitted or
    un-jitted).

    The kernel reads and writes the rank's bank and rank state in the
    shared :class:`~repro.core.rank_nmp.RankState` arrays directly.  For
    the RankCache it keeps a persistent flat LRU (``int64 -> slot`` dict
    plus linked-list arrays) mirroring the cache's ``OrderedDict``;
    after every call the LRU effects are replayed onto the OrderedDict
    so the cache object stays authoritative, and the flat side is
    rebuilt from the OrderedDict whenever the two disagree on occupancy
    (e.g. after an external ``flush()``).
    """

    def __init__(self, cache, flavor):
        self.cache = cache
        self.capacity = cache.num_entries if cache is not None else 0
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
        """Drop the flat LRU (after a cache flush)."""
        self._cache_slot = self.dict_factory()
        self._cs[CS_HEAD] = -1
        self._cs[CS_TAIL] = -1
        self._cs[CS_USED] = 0

    def _sync_cache_in(self):
        """Rebuild the flat LRU when the OrderedDict mirror diverged."""
        cache = self.cache
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
        cache = self.cache
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

    def execute(self, state, columns, rank, begin, end, base, window_size):
        """Run rank ``rank``'s stream -- the rows ``begin`` to ``end`` of
        the int64 ``columns`` (see
        :func:`~repro.core.rank_nmp.execute_segments`), arriving at
        ``base`` plus their offsets -- on ``state``'s arrays.  Adds the
        statistics to the rank-NMP and its cache; returns the last
        completion cycle."""
        (daddrs, vsizes, computes, localities, offsets, bank_groups,
         flats, rows) = columns
        self._sync_cache_in()
        st = np.zeros(ST_SIZE, np.int64)
        exec_order = np.empty(end - begin, np.int64)
        last = self.fn(
            daddrs, vsizes, computes, localities, offsets, bank_groups,
            flats, rows, begin, end, base, window_size, rank,
            state.open_row, state.next_act, state.next_read,
            state.next_pre, state.activations, state.reads,
            state.precharges, state.faw_ring, state.faw_slot,
            state.last_act, state.last_act_group, state.last_col,
            state.last_col_group, state.bus_free, state.current,
            state.timing_array, st, 1 if self.cache is not None else 0,
            self._cache_slot, self._lru_prev, self._lru_next,
            self._lru_key, self._cs, max(1, self.capacity),
            state.cache_latency, exec_order)
        self._replay_cache_out(exec_order, daddrs, localities)
        stats = state.stats[rank]
        stats.instructions += int(st[ST_INSTRUCTIONS])
        stats.cache_hits += int(st[ST_HITS])
        stats.cache_misses += int(st[ST_MISSES])
        stats.cache_bypasses += int(st[ST_BYPASSES])
        stats.dram_reads += int(st[ST_DRAM_READS])
        stats.activations += int(st[ST_ACTIVATIONS])
        stats.busy_cycles += int(st[ST_BUSY])
        stats.bytes_from_dram += int(st[ST_BYTES_DRAM])
        stats.bytes_from_cache += int(st[ST_BYTES_CACHE])
        if self.cache is not None:
            cache_stats = self.cache.stats
            cache_stats.hits += int(st[ST_HITS])
            cache_stats.misses += int(st[ST_MISSES])
            cache_stats.bypasses += int(st[ST_BYPASSES])
            cache_stats.evictions += int(st[ST_EVICTIONS])
        return int(last)


def make_rank_kernel(cache):
    """Flat kernel binding for one rank (its RankCache or None) under
    the ``numba`` and ``flat-python`` flavors; None under ``python``,
    where the rank runs the list loop."""
    flavor = active_flavor()
    if flavor in ("numba", "flat-python"):
        return FlatRankKernel(cache, flavor)
    return None


def describe():
    """One-line kernel status for CLI / benchmark reporting."""
    flavor = active_flavor()
    if flavor == "numba":
        return "numba-jitted bank state machine"
    if flavor == "flat-python":
        return "un-jitted flat kernel source"
    return "rank-NMP list loop (numba not installed)"

