"""The event-skipping FR-FCFS controller against a per-cycle reference.

``PerCycleController`` is the controller's original loop: every memory
cycle it rescans the read queue and asks the layered
``Channel.can_issue`` -> ``Rank`` -> ``Bank`` checks whether each
request's next command may issue, then issues the FR-FCFS pick.  The
production controller instead reads each request's readiness in one fused
pass and jumps idle cycles.  Both must produce identical completion
cycles, ``ControllerStats`` and elapsed cycles on any trace, and the fused
readiness must equal the layered earliest issue cycle for every queued
request at every cycle the reference visits.
"""

import dataclasses
import random
from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.dram import controller as controller_module
from repro.dram.address_mapping import MemoryGeometry, SkylakeAddressMapping
from repro.dram.commands import CommandType, MemoryRequest
from repro.dram.controller import MemoryController


class PerCycleController(MemoryController):
    """One memory cycle per ``tick``, readiness from the layered checks.

    Admission (and the decode it caches) is the production one; selection,
    issue and both drain loops are the reference's own.
    """

    def _next_command(self, pending):
        return pending.bank.required_commands(pending.address.row)[0]

    def _layered_ready(self, pending):
        address = pending.address
        return self.channel.earliest_issue_cycle(
            self._next_command(pending), pending.rank_index,
            address.bank_group, address.bank, 0)

    def _check_fused_readiness(self):
        for pending in self._queue:
            command = self._next_command(pending)
            assert self._ready_cycle(pending) == (
                self._layered_ready(pending), command is CommandType.RD)

    def _select_request(self):
        best = None
        best_is_hit = False
        for pending in self._queue:
            address = pending.address
            if not self.channel.can_issue(
                    self._next_command(pending), pending.rank_index,
                    address.bank_group, address.bank, self.cycle):
                continue
            is_hit = pending.bank.is_row_hit(address.row)
            if best is None or (is_hit and not best_is_hit):
                best = pending
                best_is_hit = is_hit
                if best_is_hit:
                    break
        return best

    def tick(self):
        self._admit_waiting()
        self._check_fused_readiness()
        if not self.channel.ca_bus_free(self.cycle):
            self.cycle += 1
            return
        pending = self._select_request()
        if pending is not None:
            self._issue(pending)
        self.cycle += 1

    def _issue(self, pending):
        address = pending.address
        bank = pending.bank
        if not pending.outcome_recorded:
            if bank.is_row_hit(address.row):
                self.stats.row_hits += 1
            elif bank.is_row_closed():
                self.stats.row_misses += 1
            else:
                self.stats.row_conflicts += 1
            bank.record_access_outcome(address.row)
            pending.outcome_recorded = True
        command = self._next_command(pending)
        data_done = self.channel.issue(command, pending.rank_index,
                                       address.bank_group, address.bank,
                                       address.row, self.cycle)
        self.stats.commands_issued += 1
        if command is CommandType.RD:
            self._complete(pending, data_done)

    def run_until_drained(self, max_cycles=10_000_000):
        while self.pending_requests:
            self.tick()
        self.stats.cycles_elapsed = self.cycle
        return self.stats

    def process_trace(self, physical_addresses, batch_size=None):
        # Requests come from the controller module's name so that
        # ``recorded_requests`` sees both controllers' requests.
        request = controller_module.MemoryRequest
        addresses = list(physical_addresses)
        if batch_size is None:
            for address in addresses:
                self.enqueue(request(physical_address=int(address)))
            return self.run_until_drained()
        index = 0
        while index < len(addresses) or self.pending_requests:
            while (index < len(addresses)
                   and self.pending_requests < batch_size):
                self.enqueue(request(physical_address=int(addresses[index])))
                index += 1
            self.tick()
        self.stats.cycles_elapsed = self.cycle
        return self.stats


@contextmanager
def recorded_requests():
    """Requests the controller module creates, in creation order."""
    created = []

    class RecordedRequest(MemoryRequest):
        def __post_init__(self):
            super().__post_init__()
            created.append(self)

    with mock.patch.object(controller_module, "MemoryRequest",
                           RecordedRequest):
        yield created


def build(cls, num_dimms, ranks_per_dimm, queue_depth):
    geometry = MemoryGeometry(num_channels=1, dimms_per_channel=num_dimms,
                              ranks_per_dimm=ranks_per_dimm)
    return cls(num_dimms=num_dimms, ranks_per_dimm=ranks_per_dimm,
               address_mapping=SkylakeAddressMapping(geometry),
               queue_depth=queue_depth)


def run_both(addresses, num_dimms, ranks_per_dimm, queue_depth, batch_size):
    """Run the production and reference controllers on one trace."""
    runs = []
    for cls in (MemoryController, PerCycleController):
        controller = build(cls, num_dimms, ranks_per_dimm, queue_depth)
        with recorded_requests() as made:
            stats = controller.process_trace(addresses,
                                             batch_size=batch_size)
        runs.append((controller, stats,
                     [request.completion_cycle for request in made]))
    return runs


def assert_identical(runs):
    (fast, fast_stats, fast_done), (ref, ref_stats, ref_done) = runs
    assert fast_done == ref_done
    assert dataclasses.asdict(fast_stats) == dataclasses.asdict(ref_stats)
    assert fast.cycle == ref.cycle == fast_stats.cycles_elapsed
    assert fast.channel.stats() == ref.channel.stats()


#: Block addresses anywhere in 1 GiB, or a few rows' worth of blocks at
#: 8 MiB strides (same banks, different rows: hits and conflicts).
ADDRESSES = st.one_of(
    st.integers(0, (1 << 30) // 64 - 1).map(lambda block: block * 64),
    st.tuples(st.integers(0, 3), st.integers(0, 511)).map(
        lambda pair: pair[0] * (8 << 20) + pair[1] * 64))


@settings(max_examples=60, deadline=None)
@given(addresses=st.lists(ADDRESSES, min_size=1, max_size=48),
       num_dimms=st.integers(1, 4),
       ranks_per_dimm=st.integers(1, 2),
       queue_depth=st.integers(1, 32),
       batch_size=st.one_of(st.none(), st.integers(1, 40)))
def test_event_skipping_matches_per_cycle_reference(
        addresses, num_dimms, ranks_per_dimm, queue_depth, batch_size):
    assert_identical(run_both(addresses, num_dimms, ranks_per_dimm,
                              queue_depth, batch_size))


def test_reference_agrees_on_a_long_random_trace():
    rng = random.Random(3)
    addresses = [rng.randrange(0, 1 << 30) // 64 * 64 for _ in range(400)]
    assert_identical(run_both(addresses, 2, 2, 32, 32))


def test_readiness_is_checked_against_layered_channel():
    """The reference really visits queued entries with the fused check."""
    controller = build(PerCycleController, 1, 2, 32)
    calls = []
    original = controller._ready_cycle

    def counting(pending):
        calls.append(pending)
        return original(pending)

    controller._ready_cycle = counting
    controller.process_trace([index * 4096 for index in range(16)])
    assert len(calls) > controller.stats.commands_issued
