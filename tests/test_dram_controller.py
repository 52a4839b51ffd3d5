"""Tests for repro.dram.controller."""

import pytest

from ddr4_reference import PerCycleController, skylake_decode
from repro.dram import controller as controller_module
from repro.dram.controller import MemoryController
from repro.dram.system import DramSystem, DramSystemConfig
from repro.dram.timing import DDR4_2400, DDR4Timing

#: A DDR4-1600 speed bin (11-11-11), next to Table I's DDR4-2400.
DDR4_1600 = DDR4Timing(clock_mhz=800.0, tRC=39, tRCD=11, tCL=11, tRP=11,
                       tRAS=28, tRTP=6, tCCD_L=5, tRRD_L=5, tFAW=20)


class TestControllerBasics:
    def test_single_read_latency(self):
        controller = MemoryController()
        stats = controller.process_trace([0])
        assert stats.requests_completed == 1
        # Closed bank: ACT + RD -> at least tRCD + tCL + tBL cycles.
        minimum = DDR4_2400.tRCD + DDR4_2400.tCL + DDR4_2400.tBL
        assert controller.completion_cycles[0] >= minimum
        assert stats.latencies == controller.completion_cycles

    def test_row_hit_faster_than_miss(self):
        controller = MemoryController()
        controller.process_trace([0, 64 * 4])  # same row, same bank
        first, second = controller.completion_cycles
        assert second > first
        assert controller.stats.row_hits >= 1

    def test_queue_depth_validation(self):
        with pytest.raises(ValueError):
            MemoryController(queue_depth=0)

    def test_shallow_queue_drains_every_request(self):
        controller = MemoryController(queue_depth=2)
        controller.process_trace([i * 1 << 20 for i in range(5)])
        assert controller.stats.requests_completed == 5
        assert min(controller.completion_cycles) > 0


@pytest.mark.parametrize("timing", [DDR4_2400, DDR4_1600],
                         ids=["ddr4-2400", "ddr4-1600"])
class TestCommandTiming:
    """A lone request's completion, from the first command at cycle 0,
    is the sum of the timing constraints on its command sequence."""

    def test_closed_bank_read_takes_trcd_tcl_tbl(self, timing):
        controller = MemoryController(timing=timing)
        controller.process_trace([0])
        assert controller.completion_cycles == [
            timing.tRCD + timing.tCL + timing.tBL]
        assert controller.stats.row_misses == 1

    def test_row_hit_reads_tccd_l_after_the_first(self, timing):
        controller = MemoryController(timing=timing)
        controller.process_trace([0, 64 * 4])  # same row, same bank
        first, second = controller.completion_cycles
        assert second == first + timing.tCCD_L
        assert controller.stats.row_hits == 1

    def test_row_conflict_precharges_and_activates_again(self, timing):
        controller = MemoryController(timing=timing)
        geometry = controller.address_mapping.geometry
        opened = skylake_decode(geometry, 0)

        def same_bank_other_row(address):
            decoded = skylake_decode(geometry, address)
            # channel, DIMM, rank, bank group and bank
            return decoded[:5] == opened[:5] and decoded.row != opened.row

        conflict = next(address for address in range(64, 1 << 30, 64)
                        if same_bank_other_row(address))
        controller.process_trace([0, conflict])
        # PRE waits for tRAS after the ACT and tRTP after the RD; the
        # second ACT for tRP after the PRE and tRC after the first ACT.
        precharge = max(timing.tRAS, timing.tRCD + timing.tRTP)
        activate = max(precharge + timing.tRP, timing.tRC)
        assert controller.completion_cycles[1] == \
            activate + timing.tRCD + timing.tCL + timing.tBL
        assert controller.stats.row_conflicts == 1


class TestFRFCFS:
    def test_prioritises_row_hits(self):
        controller = MemoryController()
        # Request A opens row X.  Then B (different row, same bank) and
        # C (row X, same bank) arrive.  FR-FCFS should serve C before B.
        row_bytes = 4 * 128 * 64 * 4  # stride that lands on same bank/diff row
        controller.process_trace([0])
        controller.process_trace([row_bytes, 64 * 4])
        b, c = controller.completion_cycles
        if controller.stats.row_hits >= 2:
            assert c < b

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
        outcomes = stats.row_hits + stats.row_misses + stats.row_conflicts
        assert outcomes == 32
        assert stats.row_hits / outcomes >= 0.9 or stats.row_hits >= 28
        assert stats.total_latency_cycles / stats.requests_completed > 0


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
    the call raises before it admits or steps anything."""
    controller, run = entry_point([i * 4096 for i in range(8)], limit)
    with pytest.raises(ValueError, match=parameter):
        run()
    assert controller.cycle == 0
    assert controller.completion_cycles == []


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


def test_a_drain_over_budget_marks_its_unfinished_bursts(monkeypatch):
    """Bursts a drain completed before it ran out of cycles have their
    completion cycle; the others read -1."""
    monkeypatch.setattr(controller_module, "_MAX_DRAIN_CYCLES", 100)
    controller = MemoryController()
    with pytest.raises(RuntimeError, match="did not drain within 100"):
        controller.process_trace([index * (8 << 20) for index in range(8)])
    finished = [done for done in controller.completion_cycles if done >= 0]
    assert 0 < len(finished) == controller.stats.requests_completed < 8
    assert controller.completion_cycles.count(-1) == 8 - len(finished)


def test_address_outside_the_channel_population_is_rejected():
    from repro.dram.address_mapping import (MemoryGeometry,
                                            SkylakeAddressMapping)

    mapping = SkylakeAddressMapping(MemoryGeometry(num_channels=1,
                                                   dimms_per_channel=2))
    address = next(address for address in range(0, 1 << 30, 1 << 12)
                   if skylake_decode(mapping.geometry, address).dimm == 1)
    controller = MemoryController(num_dimms=1, address_mapping=mapping)
    with pytest.raises(IndexError, match="1 DIMM"):
        controller.process_trace([0, address])
    assert controller.cycle == 0
    assert controller.stats.requests_completed == 0
    # The rejected trace leaves the controller as it was.
    assert controller.process_trace([0]).requests_completed == 1
