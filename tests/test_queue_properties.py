"""Queueing properties of the multi-server dispatch queue.

:func:`repro.serving.events.simulate_batch_queue` hands every
multi-server FIFO and every EDF queue to the event kernels.  The checks
here read only the returned start and completion times and share no code
with those kernels (no heap, no event loop):

* FIFO is work-conserving: in arrival order, each batch starts at
  ``max(ready, earliest server-free time at its turn)``, where that
  free time is an order statistic of the completions before it;
* no server idles while a batch waits, under either order;
* EDF order holds: when a batch starts, no batch still waiting at that
  instant has a strictly smaller priority, and among equal priorities
  the earlier-ready batch goes first.

Times are integer-valued, so every sum is exact and the checks can use
``==``.  Each property runs through every kernel flavor on the host.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import event_kernels
from repro.serving.event_kernels import force_flavor
from repro.serving.events import simulate_batch_queue

FLAVORS = ["python", "flat-python"]
if event_kernels.active_flavor() == "numba":
    FLAVORS.append("numba")

#: Gaps with heavy ties (0) and idle stretches (60) that drain servers.
gaps = st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.0, 5.0, 60.0]),
                min_size=1, max_size=40)


@st.composite
def queues(draw):
    """Ready times (shuffled, so index order is not arrival order),
    positive service times and a server count."""
    ready = np.cumsum(draw(gaps))
    size = ready.size
    services = np.array(draw(st.lists(st.integers(1, 30), min_size=size,
                                      max_size=size)), dtype=np.float64)
    permutation = np.array(draw(st.permutations(range(size))),
                           dtype=np.int64)
    num_servers = draw(st.integers(1, 4))
    return ready[permutation], services[permutation], num_servers


def _priorities(draw, size):
    # Deadline-like priorities with many ties and +inf (no deadline).
    return np.array(draw(st.lists(
        st.sampled_from([5.0, 10.0, 10.0, 20.0, np.inf]), min_size=size,
        max_size=size)), dtype=np.float64)


def _check_causal(ready, services, starts, completes):
    assert np.all(starts >= ready)
    assert np.array_equal(completes, starts + services)


def _check_no_idle_server_while_waiting(ready, starts, completes,
                                        num_servers):
    """Wherever a batch waits (``ready <= t < start``), all servers are
    busy (``start <= t < complete``).  The busy count only changes at
    start and completion times, so checking the batch's ready time and
    every such time inside its wait covers the whole interval."""
    moments = np.concatenate((starts, completes))
    for index in np.flatnonzero(starts > ready):
        inside = moments[(moments > ready[index])
                         & (moments < starts[index])]
        for moment in np.concatenate(([ready[index]], inside)):
            busy = np.count_nonzero((starts <= moment)
                                    & (moment < completes))
            assert busy == num_servers, (index, moment, busy)


@pytest.mark.parametrize("flavor", FLAVORS)
@settings(max_examples=150, deadline=None)
@given(queue=queues())
def test_fifo_is_work_conserving(flavor, queue):
    ready, services, num_servers = queue
    with force_flavor(flavor):
        starts, completes, _ = simulate_batch_queue(ready, services,
                                                    num_servers)
    _check_causal(ready, services, starts, completes)
    arrival_order = np.argsort(ready, kind="stable")
    # Each batch takes the earliest-free server.  Servers are taken in
    # nondecreasing free-time order, so at turn k the earliest free time
    # is the k-th smallest of the initial free times (every server free
    # at the first arrival) and the completions of the k batches before.
    initial = [float(ready[arrival_order[0]])] * num_servers
    for turn, index in enumerate(arrival_order):
        free_times = sorted(initial
                            + completes[arrival_order[:turn]].tolist())
        assert starts[index] == max(ready[index], free_times[turn]), turn
    _check_no_idle_server_while_waiting(ready, starts, completes,
                                        num_servers)


@pytest.mark.parametrize("flavor", FLAVORS)
@settings(max_examples=150, deadline=None)
@given(queue=queues(), data=st.data())
def test_edf_order_holds(flavor, queue, data):
    ready, services, num_servers = queue
    priorities = _priorities(data.draw, ready.size)
    with force_flavor(flavor):
        starts, completes, _ = simulate_batch_queue(
            ready, services, num_servers, order="edf",
            priorities=priorities)
    _check_causal(ready, services, starts, completes)
    for index in range(ready.size):
        start = starts[index]
        waiting = (ready <= start) & (starts > start)
        assert np.all(priorities[waiting] >= priorities[index]), index
        tied = waiting & (priorities == priorities[index])
        assert np.all(ready[tied] >= ready[index]), index
    _check_no_idle_server_while_waiting(ready, starts, completes,
                                        num_servers)
