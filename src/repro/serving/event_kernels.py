"""Compiled kernels for the serving layer's per-event hot loops.

Three loops dominate long event-engine runs once service times come from
the interpolating model: the multi-server FIFO dispatch queue and the
EDF dispatch queue of :func:`repro.serving.events.simulate_batch_queue`,
and the admission layer's fluid-backlog filter, which every built-in
:class:`~repro.serving.admission.AdmissionController` runs as one mode
of :func:`admission_mask`.  This module holds each loop as a
``_*_flat`` struct-of-arrays kernel written in the numba-compilable
subset of Python, and runs it three ways:

* ``"numba"`` -- ``@njit``-compiled, when :mod:`numba` is importable;
* ``"flat-python"`` -- the un-jitted source over preallocated
  ``float64`` / ``int64`` arrays, so the jitted semantics are pinned by
  tests on hosts without numba;
* ``"python"`` -- the interpreter's fastest form over the inputs
  converted to plain lists (``.tolist()``): the admission filter runs
  the same un-jitted source, and the two queues run as ``heapq`` loops
  (:func:`_fifo_events_heapq`, :func:`_edf_events_heapq`), whose C
  sifts beat the flat kernels' hand-rolled ones in CPython.

Flavor selection and ``force_flavor`` are shared with
:mod:`repro.core.kernels` -- one switch governs every compiled kernel in
the tree.  The readable specifications of all three loops -- the
``heapq`` dispatch queues and the per-query admission rules -- live in
the test suite as reference oracles (``tests/queue_oracles.py``); the
tests pin every flavor against them byte for byte.

Bit-identity argument
---------------------
The FIFO free-server heap holds plain ``float64`` next-free times; the
simulated starts/completes depend only on the *minimum value* of that
multiset at each step, never on heap layout, so the flat kernels'
replace-root binary heap and ``heapq.heapreplace`` reproduce the same
pop/push sequence exactly -- including ties, which are ties between
equal floats.  The EDF pending heap orders ``(priority, ready, index)``
lexicographically; the index is unique, so the order is total and the
popped element is layout-independent there too, whether the heap is
three flat arrays or a ``heapq`` list of tuples.  The admission kernel
performs the same float arithmetic in the same order as the per-query
oracle.  Randomized equivalence tests (``tests/test_event_kernels.py``)
and a hypothesis property (``tests/test_admission_properties.py``) pin
all three against the reference loops.
"""

import heapq

import numpy as np

from repro.core.kernels import (  # noqa: F401  (re-exported flavor API)
    active_flavor,
    force_flavor,
    maybe_jit,
)

__all__ = [
    "active_flavor",
    "force_flavor",
    "fifo_queue_times",
    "edf_queue_times",
    "admission_mask",
    "describe",
]


# --------------------------------------------------------------------- #
# FIFO dispatch queue                                                   #
# --------------------------------------------------------------------- #
def _fifo_events_flat(order, ready, services, free_heap, starts, completes,
                      num_servers):
    first = ready[order[0]]
    for slot in range(num_servers):
        free_heap[slot] = first
    for position in range(len(order)):
        index = order[position]
        now = free_heap[0]
        start = ready[index]
        if start < now:
            start = now
        complete = start + services[index]
        starts[index] = start
        completes[index] = complete
        hole = 0
        child = 1
        while child < num_servers:
            right = child + 1
            if right < num_servers and free_heap[right] < free_heap[child]:
                child = right
            if free_heap[child] < complete:
                free_heap[hole] = free_heap[child]
                hole = child
                child = 2 * hole + 1
            else:
                break
        free_heap[hole] = complete


# --------------------------------------------------------------------- #
# EDF dispatch queue                                                    #
# --------------------------------------------------------------------- #
def _edf_events_flat(order, ready, services, priority, free_heap,
                     pending_priority, pending_ready, pending_index,
                     starts, completes, num_servers):
    num_batches = len(order)
    first = ready[order[0]]
    for slot in range(num_servers):
        free_heap[slot] = first
    pending_size = 0
    next_arrival = 0
    for _ in range(num_batches):
        now = free_heap[0]
        if pending_size == 0:
            arrival = ready[order[next_arrival]]
            if arrival > now:
                now = arrival
        while next_arrival < num_batches:
            index = order[next_arrival]
            if ready[index] > now:
                break
            child = pending_size
            pending_priority[child] = priority[index]
            pending_ready[child] = ready[index]
            pending_index[child] = index
            pending_size += 1
            while child > 0:
                parent = (child - 1) // 2
                less = False
                if pending_priority[child] < pending_priority[parent]:
                    less = True
                elif pending_priority[child] == pending_priority[parent]:
                    if pending_ready[child] < pending_ready[parent]:
                        less = True
                    elif pending_ready[child] == pending_ready[parent] \
                            and pending_index[child] \
                            < pending_index[parent]:
                        less = True
                if not less:
                    break
                swap_priority = pending_priority[parent]
                swap_ready = pending_ready[parent]
                swap_index = pending_index[parent]
                pending_priority[parent] = pending_priority[child]
                pending_ready[parent] = pending_ready[child]
                pending_index[parent] = pending_index[child]
                pending_priority[child] = swap_priority
                pending_ready[child] = swap_ready
                pending_index[child] = swap_index
                child = parent
            next_arrival += 1
        batch_ready = pending_ready[0]
        index = pending_index[0]
        pending_size -= 1
        pending_priority[0] = pending_priority[pending_size]
        pending_ready[0] = pending_ready[pending_size]
        pending_index[0] = pending_index[pending_size]
        hole = 0
        while True:
            child = 2 * hole + 1
            if child >= pending_size:
                break
            right = child + 1
            if right < pending_size:
                less = False
                if pending_priority[right] < pending_priority[child]:
                    less = True
                elif pending_priority[right] == pending_priority[child]:
                    if pending_ready[right] < pending_ready[child]:
                        less = True
                    elif pending_ready[right] == pending_ready[child] \
                            and pending_index[right] \
                            < pending_index[child]:
                        less = True
                if less:
                    child = right
            less = False
            if pending_priority[child] < pending_priority[hole]:
                less = True
            elif pending_priority[child] == pending_priority[hole]:
                if pending_ready[child] < pending_ready[hole]:
                    less = True
                elif pending_ready[child] == pending_ready[hole] \
                        and pending_index[child] < pending_index[hole]:
                    less = True
            if not less:
                break
            swap_priority = pending_priority[hole]
            swap_ready = pending_ready[hole]
            swap_index = pending_index[hole]
            pending_priority[hole] = pending_priority[child]
            pending_ready[hole] = pending_ready[child]
            pending_index[hole] = pending_index[child]
            pending_priority[child] = swap_priority
            pending_ready[child] = swap_ready
            pending_index[child] = swap_index
            hole = child
        start = batch_ready
        if start < now:
            start = now
        complete = start + services[index]
        starts[index] = start
        completes[index] = complete
        hole = 0
        child = 1
        while child < num_servers:
            right = child + 1
            if right < num_servers and free_heap[right] < free_heap[child]:
                child = right
            if free_heap[child] < complete:
                free_heap[hole] = free_heap[child]
                hole = child
                child = 2 * hole + 1
            else:
                break
        free_heap[hole] = complete


# --------------------------------------------------------------------- #
# heapq forms of the queues (the "python" flavor)                       #
# --------------------------------------------------------------------- #
def _fifo_events_heapq(order, ready, services, starts, completes,
                       num_servers):
    heapreplace = heapq.heapreplace
    free_heap = [ready[order[0]]] * num_servers
    for index in order:
        now = free_heap[0]
        start = ready[index]
        if start < now:
            start = now
        complete = start + services[index]
        starts[index] = start
        completes[index] = complete
        heapreplace(free_heap, complete)


def _edf_events_heapq(order, ready, services, priority, starts, completes,
                      num_servers):
    heappush = heapq.heappush
    heappop = heapq.heappop
    heapreplace = heapq.heapreplace
    num_batches = len(order)
    free_heap = [ready[order[0]]] * num_servers
    pending = []
    next_arrival = 0
    for _ in range(num_batches):
        now = free_heap[0]
        if not pending:
            arrival = ready[order[next_arrival]]
            if arrival > now:
                now = arrival
        while next_arrival < num_batches:
            index = order[next_arrival]
            if ready[index] > now:
                break
            heappush(pending, (priority[index], ready[index], index))
            next_arrival += 1
        _, start, index = heappop(pending)
        if start < now:
            start = now
        complete = start + services[index]
        starts[index] = start
        completes[index] = complete
        heapreplace(free_heap, complete)


# --------------------------------------------------------------------- #
# Admission fluid-backlog filter                                        #
# --------------------------------------------------------------------- #
#: Kernel mode codes of the built-in admission controllers.
ADMISSION_MODE_NONE = 0
ADMISSION_MODE_TOKEN_BUCKET = 1
ADMISSION_MODE_QUEUE_DEPTH = 2
ADMISSION_MODE_DEADLINE = 3

#: Slots of the carried admission state vector: the fluid backlog, the
#: last-processed arrival, and the token bucket's level / last-refill
#: time (NaN until the bucket sees its first arrival).
ADM_BACKLOG_US, ADM_LAST_US, ADM_TOKENS, ADM_TOKEN_LAST_US = range(4)
ADM_STATE_SIZE = 4


def _admission_events_flat(arrivals, slacks, admitted, state, num_servers,
                           est_query_us, est_batch_us, mode, param0,
                           param1):
    backlog_us = state[0]
    last_us = state[1]
    tokens = state[2]
    token_last_us = state[3]
    for position in range(len(arrivals)):
        now_us = arrivals[position]
        backlog_us = backlog_us - (now_us - last_us) * num_servers
        if backlog_us < 0.0:
            backlog_us = 0.0
        last_us = now_us
        wait_us = backlog_us / num_servers
        admit = True
        if mode == 1:
            if token_last_us == token_last_us and now_us > token_last_us:
                refill = tokens + (now_us - token_last_us) * param0 / 1e6
                if refill < param1:
                    tokens = refill
                else:
                    tokens = param1
            token_last_us = now_us
            if tokens >= 1.0:
                tokens = tokens - 1.0
            else:
                admit = False
        elif mode == 2:
            depth = wait_us * num_servers / est_query_us
            if depth >= param0:
                admit = False
        elif mode == 3:
            slack_us = slacks[position]
            if slack_us == slack_us:
                predicted_us = wait_us + param0 * est_batch_us
                if predicted_us > slack_us:
                    admit = False
        if admit:
            admitted[position] = 1
            backlog_us = backlog_us + est_query_us
        else:
            admitted[position] = 0
    state[0] = backlog_us
    state[1] = last_us
    state[2] = tokens
    state[3] = token_last_us


# --------------------------------------------------------------------- #
# Jit application (the core-kernels plumbing)                           #
# --------------------------------------------------------------------- #
#: Un-jitted sources: the "flat-python" flavor (and the admission
#: filter's "python" one), pinned by parity tests so the compiled
#: flavor can never silently diverge.
_fifo_events_flat_py = _fifo_events_flat
_edf_events_flat_py = _edf_events_flat
_admission_events_flat_py = _admission_events_flat

_fifo_events_flat = maybe_jit(_fifo_events_flat)
_edf_events_flat = maybe_jit(_edf_events_flat)
_admission_events_flat = maybe_jit(_admission_events_flat)


# --------------------------------------------------------------------- #
# Dispatchers                                                           #
# --------------------------------------------------------------------- #
def fifo_queue_times(ready, services, arrival_order, num_servers):
    """Multi-server FIFO starts/completes via the active kernel flavor.

    ``ready`` / ``services`` are ``float64`` arrays, ``arrival_order``
    the stable arrival permutation.  Returns ``(starts, completes)``
    ``float64`` arrays indexed like the inputs, bit-identical to the
    reference ``heapq`` loop.
    """
    flavor = active_flavor()
    size = ready.shape[0]
    if flavor == "python":
        starts = [0.0] * size
        completes = [0.0] * size
        _fifo_events_heapq(arrival_order.tolist(), ready.tolist(),
                           services.tolist(), starts, completes,
                           num_servers)
        return (np.asarray(starts, dtype=np.float64),
                np.asarray(completes, dtype=np.float64))
    kernel = _fifo_events_flat if flavor == "numba" \
        else _fifo_events_flat_py
    starts = np.empty(size, dtype=np.float64)
    completes = np.empty(size, dtype=np.float64)
    kernel(arrival_order, ready, services,
           np.empty(num_servers, dtype=np.float64), starts, completes,
           num_servers)
    return starts, completes


def edf_queue_times(ready, services, priorities, arrival_order,
                    num_servers):
    """Earliest-deadline-first starts/completes via the active flavor.

    Like :func:`fifo_queue_times` with a per-batch ``priorities`` vector
    (smaller serves first; ties fall back to ready time, then batch
    index -- exactly ``heapq``'s tuple order in the reference loop).
    """
    flavor = active_flavor()
    size = ready.shape[0]
    if flavor == "python":
        starts = [0.0] * size
        completes = [0.0] * size
        _edf_events_heapq(arrival_order.tolist(), ready.tolist(),
                          services.tolist(), priorities.tolist(), starts,
                          completes, num_servers)
        return (np.asarray(starts, dtype=np.float64),
                np.asarray(completes, dtype=np.float64))
    kernel = _edf_events_flat if flavor == "numba" else _edf_events_flat_py
    starts = np.empty(size, dtype=np.float64)
    completes = np.empty(size, dtype=np.float64)
    kernel(arrival_order, ready, services, priorities,
           np.empty(num_servers, dtype=np.float64),
           np.empty(size, dtype=np.float64),
           np.empty(size, dtype=np.float64),
           np.empty(size, dtype=np.int64), starts, completes, num_servers)
    return starts, completes


def new_admission_state(first_arrival_us, initial_tokens=0.0):
    """Fresh carried-state vector for :func:`admission_mask`.

    ``first_arrival_us`` seeds the fluid model's last-arrival clock (so
    the first gap is zero); ``initial_tokens`` seeds the token bucket
    (its burst size) for the token-bucket mode.
    """
    state = np.zeros(ADM_STATE_SIZE, dtype=np.float64)
    state[ADM_LAST_US] = first_arrival_us
    state[ADM_TOKENS] = initial_tokens
    state[ADM_TOKEN_LAST_US] = np.nan
    return state


def admission_mask(arrivals, slacks, state, num_servers, est_query_us,
                   est_batch_us, mode, param0=0.0, param1=0.0):
    """Vectorised admission pass over one (chunk of a) query stream.

    ``arrivals`` are the sorted arrival times, ``slacks`` the per-query
    deadline slacks (NaN = no deadline), ``state`` the carried vector
    from :func:`new_admission_state` (mutated in place, so consecutive
    chunks continue the same fluid model).  ``mode`` picks the rule
    (the ``ADMISSION_MODE_*`` codes) and ``param0``/``param1`` its
    parameters: the token bucket's refill rate (QPS) and burst, the
    queue-depth bound, or the deadline margin.  Returns a boolean admit
    mask, bit-identical to the per-query oracle.
    """
    flavor = active_flavor()
    size = arrivals.shape[0]
    if flavor == "python":
        admitted = [0] * size
        state_list = state.tolist()
        _admission_events_flat_py(arrivals.tolist(), slacks.tolist(),
                                  admitted, state_list, num_servers,
                                  est_query_us, est_batch_us, mode, param0,
                                  param1)
        state[:] = state_list
        return np.asarray(admitted, dtype=np.uint8) != 0
    kernel = _admission_events_flat if flavor == "numba" \
        else _admission_events_flat_py
    admitted = np.empty(size, dtype=np.uint8)
    kernel(arrivals, slacks, admitted, state, num_servers, est_query_us,
           est_batch_us, mode, param0, param1)
    return admitted != 0


def describe():
    """One-line event-kernel status for CLI / benchmark reporting."""
    flavor = active_flavor()
    if flavor == "numba":
        return "numba-jitted event-loop kernels"
    return "pure-python event-loop kernels (numba not installed)"
