"""Tests for repro.dram.controller."""

import pytest

from ddr4_reference import PerCycleController
from repro.dram import controller as controller_module
from repro.dram.commands import MemoryRequest, RequestType
from repro.dram.controller import MemoryController
from repro.dram.system import DramSystem, DramSystemConfig
from repro.dram.timing import DDR4_2400


class TestControllerBasics:
    def test_single_read_latency(self):
        controller = MemoryController()
        request = MemoryRequest(physical_address=0)
        controller.enqueue(request)
        stats = controller.run_until_drained()
        assert stats.requests_completed == 1
        # Closed bank: ACT + RD -> at least tRCD + tCL + tBL cycles.
        minimum = DDR4_2400.tRCD + DDR4_2400.tCL + DDR4_2400.tBL
        assert request.latency_cycles >= minimum

    def test_row_hit_faster_than_miss(self):
        controller = MemoryController()
        first = MemoryRequest(physical_address=0)
        second = MemoryRequest(physical_address=64 * 4)  # same row, same bank
        controller.enqueue(first)
        controller.enqueue(second)
        controller.run_until_drained()
        assert second.completion_cycle > first.completion_cycle
        assert controller.stats.row_hits >= 1

    def test_writes_not_supported(self):
        controller = MemoryController()
        with pytest.raises(NotImplementedError):
            controller.enqueue(MemoryRequest(physical_address=0,
                                             request_type=RequestType.WRITE))

    def test_queue_depth_validation(self):
        with pytest.raises(ValueError):
            MemoryController(queue_depth=0)

    def test_pending_counts_waiting_requests(self):
        controller = MemoryController(queue_depth=2)
        for i in range(5):
            controller.enqueue(MemoryRequest(physical_address=i * 1 << 20))
        assert controller.pending_requests == 5
        controller.run_until_drained()
        assert controller.pending_requests == 0
        assert controller.stats.requests_completed == 5


class TestFRFCFS:
    def test_prioritises_row_hits(self):
        controller = MemoryController()
        # Request A opens row X.  Then enqueue B (different row, same bank)
        # and C (row X, same bank).  FR-FCFS should serve C before B.
        row_bytes = 4 * 128 * 64 * 4  # stride that lands on same bank/diff row
        a = MemoryRequest(physical_address=0)
        controller.enqueue(a)
        controller.run_until_drained()
        b = MemoryRequest(physical_address=row_bytes)
        c = MemoryRequest(physical_address=64 * 4)
        controller.enqueue(b)
        controller.enqueue(c)
        controller.run_until_drained()
        if controller.stats.row_hits >= 2:
            assert c.completion_cycle < b.completion_cycle

    def test_throughput_of_random_trace(self):
        controller = MemoryController()
        import random

        rng = random.Random(0)
        addresses = [rng.randrange(0, 1 << 30) // 64 * 64 for _ in range(200)]
        stats = controller.process_trace(addresses)
        assert stats.requests_completed == 200
        # Bank-level parallelism must beat fully serialised row misses.
        serialized = 200 * (DDR4_2400.tRP + DDR4_2400.tRCD + DDR4_2400.tCL)
        assert stats.cycles_elapsed < serialized

    def test_data_bus_bound_for_row_hits(self):
        controller = MemoryController()
        # Sequential addresses in one row: throughput ~ tBL per burst.
        addresses = [i * 64 for i in range(64)]
        stats = controller.process_trace(addresses)
        assert stats.cycles_elapsed >= 64 * DDR4_2400.tBL
        assert stats.cycles_elapsed <= 64 * DDR4_2400.tBL + 200

    def test_outstanding_cap(self):
        controller = MemoryController()
        addresses = [i * 4096 for i in range(50)]
        stats = controller.process_trace(addresses, batch_size=4)
        assert stats.requests_completed == 50

    def test_channel_row_outcomes_match_controller_stats(self):
        """The drain counts each request's row outcome once, at its first
        command, as the reference's banks record it."""
        import random

        controller = MemoryController()
        reference = PerCycleController()
        rng = random.Random(1)
        # A 16 MiB window: reused rows (hits), fresh banks (misses) and
        # rows evicting each other (conflicts).
        addresses = [rng.randrange(0, 1 << 24) // 64 * 64 for _ in range(300)]
        stats = controller.process_trace(addresses, batch_size=16)
        reference.process_trace(addresses, batch_size=16)
        totals = reference.channel.stats()
        assert stats.row_hits and stats.row_misses and stats.row_conflicts
        assert (totals["row_hits"], totals["row_misses"],
                totals["row_conflicts"]) == (
            stats.row_hits, stats.row_misses, stats.row_conflicts)
        # A request whose row another request closes again before its RD
        # activates twice, so ACTs can only exceed the first outcomes.
        assert totals["activations"] >= stats.row_misses + stats.row_conflicts

    def test_stats_row_hit_rate(self):
        controller = MemoryController()
        addresses = [i * 64 for i in range(32)]
        stats = controller.process_trace(addresses)
        assert 0.9 <= stats.row_hit_rate <= 1.0 or stats.row_hits >= 28
        assert stats.average_latency_cycles > 0


def _controller_run(addresses, limit):
    controller = MemoryController()
    return controller, lambda: controller.process_trace(
        addresses, batch_size=limit)


def _system_run(addresses, limit):
    system = DramSystem(DramSystemConfig(num_channels=1))
    return system.controllers[0], lambda: system.run_trace(
        addresses, outstanding_per_channel=limit)


@pytest.mark.parametrize("limit", [0, -3])
@pytest.mark.parametrize("entry_point, parameter", [
    (_controller_run, "batch_size"),
    (_system_run, "outstanding_per_channel")])
def test_outstanding_limit_below_one_is_rejected(entry_point, parameter,
                                                 limit):
    """Such a cap admits nothing, so the throttled loop would never drain:
    the call raises before it enqueues or steps anything."""
    controller, run = entry_point([i * 4096 for i in range(8)], limit)
    with pytest.raises(ValueError, match=parameter):
        run()
    assert controller.cycle == 0
    assert controller.pending_requests == 0


def test_throttled_run_has_the_drain_cycle_budget(monkeypatch):
    monkeypatch.setattr(controller_module, "_MAX_DRAIN_CYCLES", 100)
    controller = MemoryController()
    with pytest.raises(RuntimeError, match="did not drain within 100"):
        controller.process_trace([i * (8 << 20) for i in range(32)],
                                 batch_size=4)


@pytest.mark.parametrize("batch_size", [None, 4])
@pytest.mark.parametrize("budget", [60, 100, 150, 250])
def test_drain_budget_bounds_the_issue_cycle(monkeypatch, budget,
                                             batch_size):
    """One scheduler pass jumps the clock over idle cycles and issues at
    the cycle it lands on, so the budget is checked against that cycle:
    the run raises before any command would go out past start + budget.

    Rows of one bank at 8 MiB strides: after the first, every request is
    a row conflict, and the tRP/tRCD/tRAS waits between its PRE, ACT and
    RD leave idle gaps for the clock to jump."""
    monkeypatch.setattr(controller_module, "_MAX_DRAIN_CYCLES", budget)
    controller = MemoryController()
    with pytest.raises(RuntimeError,
                       match="did not drain within %d cycles" % budget):
        controller.process_trace([i * (8 << 20) for i in range(32)],
                                 batch_size=batch_size)
    assert controller.stats.commands_issued > 0
    # The clock is the next free C/A slot: one past the last issue.
    assert controller.cycle - 1 <= budget


def test_a_drain_over_budget_leaves_its_unfinished_requests_pending():
    """Requests a drain completed before it ran out of cycles have their
    completion cycle; the others stay pending for the next drain."""
    controller = MemoryController()
    requests = [MemoryRequest(physical_address=index * (8 << 20))
                for index in range(8)]
    for request in requests:
        controller.enqueue(request)
    with pytest.raises(RuntimeError, match="did not drain within 100"):
        controller.run_until_drained(max_cycles=100)
    finished = [request for request in requests
                if request.completion_cycle >= 0]
    assert 0 < len(finished) == controller.stats.requests_completed < 8
    assert controller.pending_requests == 8 - len(finished)
    controller.run_until_drained()
    assert controller.pending_requests == 0
    assert all(request.completion_cycle >= 0 for request in requests)
    assert controller.stats.requests_completed == 8


def test_enqueued_requests_arrive_before_a_trace():
    """Requests enqueued before ``process_trace`` arrived already: they
    are first in line and count against the trace's outstanding cap."""
    addresses = [index * (8 << 20) + 64 * (index % 3) for index in range(9)]
    controller = MemoryController(queue_depth=2)
    early = [MemoryRequest(physical_address=address)
             for address in addresses[:2]]
    for request in early:
        controller.enqueue(request)
    stats = controller.process_trace(addresses[2:], batch_size=3)
    whole = MemoryController(queue_depth=2)
    assert stats == whole.process_trace(addresses, batch_size=3)
    assert controller.completion_cycles == whole.completion_cycles
    assert [request.completion_cycle for request in early] == \
        whole.completion_cycles[:2]


def test_address_outside_the_channel_population_is_rejected():
    from repro.dram.address_mapping import (MemoryGeometry,
                                            SkylakeAddressMapping)

    mapping = SkylakeAddressMapping(MemoryGeometry(num_channels=1,
                                                   dimms_per_channel=2))
    address = next(address for address in range(0, 1 << 30, 1 << 12)
                   if mapping.map(address).dimm == 1)
    controller = MemoryController(num_dimms=1, address_mapping=mapping)
    controller.enqueue(MemoryRequest(physical_address=0))
    with pytest.raises(IndexError, match="1 DIMM"):
        controller.process_trace([address])
    assert controller.cycle == 0
    # The rejected trace leaves the enqueued request pending.
    assert controller.pending_requests == 1
    controller.run_until_drained()
    assert controller.pending_requests == 0
    assert controller.stats.requests_completed == 1
