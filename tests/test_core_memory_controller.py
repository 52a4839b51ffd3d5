"""Tests for repro.core.memory_controller (the NMP extension)."""

import numpy as np
import pytest

from repro.core.instruction import (
    DDR_CMD_ACT,
    DDR_CMD_PRE,
    DDR_CMD_RD,
    NMPInstruction,
)
from repro.core.memory_controller import NMPMemoryController
from repro.core.processing_unit import RecNMPChannel
from repro.core.rank_nmp import RankNMPConfig
from repro.core.simulator import RecNMPConfig, RecNMPSimulator

from nmp_packets import instructions_of, packet_of

FULL_CMD = DDR_CMD_ACT | DDR_CMD_RD | DDR_CMD_PRE


def _packet(table_id, batch_index, packet_id, count=8, stride=997):
    instructions = [
        NMPInstruction(ddr_cmd=FULL_CMD,
                       daddr=(packet_id * 10_000 + i * stride) & 0xFFFFFFFF,
                       psum_tag=i % 4, table_id=table_id)
        for i in range(count)
    ]
    return packet_of(instructions, table_id=table_id,
                     batch_index=batch_index, packet_id=packet_id)


def _reordered(controller, packet):
    """The packet's instructions in the controller's issue order."""
    _, order = controller._issue_orders([packet.instructions])
    instructions = instructions_of(packet)
    return [instructions[i] for i in order.tolist()]


class TestSubmissionAndDispatch:
    def test_dispatch_runs_all_packets(self):
        controller = NMPMemoryController(num_ranks=4)
        channel = RecNMPChannel(num_dimms=2, ranks_per_dimm=2)
        controller.submit([_packet(0, 0, i) for i in range(3)])
        controller.submit([_packet(1, 0, 10 + i) for i in range(3)])
        total, per_packet = controller.dispatch(channel)
        assert controller.stats.packets_issued == 6
        assert controller.stats.instructions_issued == 48
        assert len(per_packet) == 6
        assert total >= max(per_packet)

    def test_per_rank_instruction_accounting(self):
        controller = NMPMemoryController(num_ranks=4)
        channel = RecNMPChannel(num_dimms=2, ranks_per_dimm=2)
        controller.submit([_packet(0, 0, 0, count=16)])
        controller.dispatch(channel)
        assert sum(controller.stats.per_rank_instructions.values()) == 16

    def test_table_aware_policy_orders_by_table(self):
        controller = NMPMemoryController(num_ranks=2,
                                         scheduling_policy="table-aware")
        controller.submit([_packet(0, 0, 0), _packet(0, 0, 1)])
        controller.submit([_packet(1, 0, 2), _packet(1, 0, 3)])
        order = controller._take_schedule()
        assert [p.table_id for p in order] == [0, 0, 1, 1]

    def test_fcfs_policy_interleaves(self):
        controller = NMPMemoryController(num_ranks=2,
                                         scheduling_policy="fcfs")
        controller.submit([_packet(0, 0, 0), _packet(0, 0, 1)])
        controller.submit([_packet(1, 0, 2), _packet(1, 0, 3)])
        order = controller._take_schedule()
        assert [p.table_id for p in order] == [0, 1, 0, 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            NMPMemoryController(num_ranks=0)
        with pytest.raises(ValueError):
            NMPMemoryController(reorder_window=0)
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            NMPMemoryController(scheduling_policy="random")

    @pytest.mark.parametrize("policy", ["fcfs", "table-aware"])
    def test_dispatch_consumes_its_packets(self, policy):
        # A reused controller runs each submitted packet once: the second
        # dispatch runs only what was submitted after the first.  It used
        # to run all five again (packets_issued 8 against 5 received).
        controller = NMPMemoryController(num_ranks=4,
                                         scheduling_policy=policy)
        channel = RecNMPChannel(num_dimms=2, ranks_per_dimm=2)
        controller.submit([_packet(0, 0, i) for i in range(3)])
        _, first = controller.dispatch(channel)
        controller.submit([_packet(1, 0, 10 + i) for i in range(2)])
        _, second = controller.dispatch(channel)
        assert (len(first), len(second)) == (3, 2)
        assert controller.stats.packets_issued == \
            controller.stats.packets_received == 5
        assert controller.stats.instructions_issued == 5 * 8
        assert channel.aggregate_stats()["instructions"] == 5 * 8
        assert controller.dispatch(channel) == (0, [])

    @pytest.mark.parametrize("policy", ["fcfs", "table-aware"])
    def test_dispatch_without_reorder_consumes_its_packets(self, policy):
        controller = NMPMemoryController(num_ranks=4,
                                         scheduling_policy=policy)
        channel = RecNMPChannel(num_dimms=2, ranks_per_dimm=2)
        controller.submit([_packet(0, 0, i) for i in range(3)])
        _, first = controller.dispatch(channel, reorder=False)
        controller.submit([_packet(1, 0, 10)])
        _, second = controller.dispatch(channel, reorder=False)
        assert (len(first), len(second)) == (3, 1)
        assert controller.stats.packets_issued == 4
        assert channel.aggregate_stats()["instructions"] == 4 * 8

    def test_rejected_dispatch_consumes_its_packets(self):
        # The packets of a dispatch that raised are not run again by the
        # next one, which runs only what was submitted after it.
        controller = NMPMemoryController(
            num_ranks=4,
            ranks_of_addresses=lambda addresses: np.where(
                addresses == 0, 9, 1))
        channel = RecNMPChannel(num_dimms=2, ranks_per_dimm=2)
        controller.submit([_packet(0, 0, 1), _packet(0, 0, 0)])
        with pytest.raises(ValueError, match="invalid rank 9"):
            controller.dispatch(channel)
        assert controller.dispatch(channel) == (0, [])
        controller.submit([_packet(0, 0, 2)])
        _, per_packet = controller.dispatch(channel)
        assert len(per_packet) == 1
        assert controller.stats.packets_received == 3
        assert controller.stats.packets_issued == 1
        assert channel.aggregate_stats()["instructions"] == 8


class TestReordering:
    def test_reorder_groups_same_row(self):
        controller = NMPMemoryController(num_ranks=1, reorder_window=8)
        # Rows alternate A, B, A, B...; reordering should group them.
        instructions = [NMPInstruction(ddr_cmd=FULL_CMD,
                                       daddr=(i % 2) * 128 * 64 + i)
                        for i in range(8)]
        packet = packet_of(instructions)
        reordered = _reordered(controller, packet)
        rows = [inst.daddr // 128 for inst in reordered]
        transitions = sum(1 for a, b in zip(rows, rows[1:]) if a != b)
        original_rows = [inst.daddr // 128 for inst in instructions]
        original_transitions = sum(1 for a, b in
                                   zip(original_rows, original_rows[1:])
                                   if a != b)
        assert transitions <= original_transitions
        # No instruction may be lost or duplicated.
        assert sorted(i.daddr for i in reordered) == \
            sorted(i.daddr for i in instructions)

    def test_reorder_preserves_instruction_multiset(self):
        controller = NMPMemoryController(num_ranks=4, reorder_window=4)
        packet = _packet(0, 0, 0, count=12)
        reordered = _reordered(controller, packet)
        assert sorted(i.daddr for i in reordered) == \
            sorted(packet.instructions.daddrs.tolist())

    def test_reorder_permutation_is_fr_fcfs(self):
        # One rank, rows [A, B, A, B, C, A], window 4: with no open row
        # the oldest (A) goes; each later A that has entered the window
        # is then hoisted past the older B misses, then B, B, C drain.
        controller = NMPMemoryController(num_ranks=1, reorder_window=4)
        rows = [3, 7, 3, 7, 9, 3]
        instructions = [NMPInstruction(ddr_cmd=FULL_CMD, daddr=row * 128)
                        for row in rows]
        reordered = _reordered(controller,
                               packet_of(instructions))
        assert [inst.daddr // 128 for inst in reordered] == \
            [3, 3, 3, 7, 7, 9]

    @pytest.mark.parametrize("bad_rank", [-1, 4])
    def test_out_of_range_rank_rejected_before_reorder(self, bad_rank):
        # The reorder indexes its per-rank open-row table by rank, so a
        # negative rank would silently wrap around if not caught first.
        controller = NMPMemoryController(
            num_ranks=4,
            ranks_of_addresses=lambda addresses: np.where(
                addresses == 0, bad_rank, 1))
        channel = RecNMPChannel(num_dimms=2, ranks_per_dimm=2)
        packet = _packet(0, 0, 0, count=8)
        with pytest.raises(ValueError, match="invalid rank %d" % bad_rank):
            controller._issue_orders([packet.instructions])
        controller.submit([packet])
        with pytest.raises(ValueError, match="invalid rank %d" % bad_rank):
            controller.dispatch(channel)

    def test_invalid_rank_rejected_before_any_packet_runs(self):
        # Ranks are mapped and validated once per dispatch: the valid
        # packets scheduled ahead of the bad one never reach the channel.
        controller = NMPMemoryController(
            num_ranks=4, scheduling_policy="fcfs",
            ranks_of_addresses=lambda addresses: np.where(
                addresses == 0, 9, 1))
        channel = RecNMPChannel(num_dimms=2, ranks_per_dimm=2)
        controller.submit([_packet(0, 0, 1), _packet(0, 0, 2),
                           _packet(0, 0, 0)])
        with pytest.raises(ValueError, match="invalid rank 9"):
            controller.dispatch(channel)
        assert controller.stats.packets_issued == 0
        assert controller.stats.instructions_issued == 0
        assert controller.stats.per_rank_instructions == {}
        assert channel.aggregate_stats()["instructions"] == 0
        assert list(channel._state.current) == [0, 0, 0, 0]

    def test_dispatch_without_reorder(self):
        controller = NMPMemoryController(num_ranks=2)
        channel = RecNMPChannel(num_dimms=1, ranks_per_dimm=2,
                                rank_config=RankNMPConfig(use_cache=False))
        controller.submit([_packet(0, 0, 0)])
        total, _ = controller.dispatch(channel, reorder=False)
        assert total > 0


class TestPerRankStats:
    """Regression: the once-per-packet rank computation must produce the
    same per-rank instruction statistics as re-deriving the rank per
    instruction (the old second pass)."""

    @pytest.mark.parametrize("reorder", [True, False])
    def test_stats_match_per_instruction_recomputation(self, reorder):
        controller = NMPMemoryController(num_ranks=4, reorder_window=4)
        channel = RecNMPChannel(num_dimms=2, ranks_per_dimm=2)
        packets = [_packet(t, 0, 10 * t + i, count=16, stride=641)
                   for t in range(2) for i in range(2)]
        controller.submit(packets)
        controller.dispatch(channel, reorder=reorder)
        expected = {}
        for packet in packets:
            for daddr in packet.instructions.daddrs.tolist():
                rank = daddr % 4     # 64 B blocks interleaved over ranks
                expected[rank] = expected.get(rank, 0) + 1
        assert controller.stats.per_rank_instructions == expected
        assert sum(expected.values()) == 64

    def test_vectorised_rank_mapping_matches_scalar(self):
        """Page colouring maps a dispatch's addresses in one array pass;
        it must colour pages exactly like a scalar first-touch loop,
        across dispatches (colours persist until reset)."""
        config = RecNMPConfig(num_dimms=2, ranks_per_dimm=2,
                              rank_assignment="page-coloring")
        simulator = RecNMPSimulator(config)
        controller = NMPMemoryController(
            num_ranks=config.num_ranks,
            ranks_of_addresses=simulator._ranks_of_addresses)
        colours = {}
        rng = np.random.default_rng(3)
        for dispatch in range(4):
            packet = _packet(0, 0, dispatch, count=int(rng.integers(3, 40)),
                             stride=int(rng.integers(1, 200)))
            ranks, _ = controller._issue_orders([packet.instructions])
            expected = []
            for daddr in packet.instructions.daddrs.tolist():
                page = daddr * 64 // 4096
                if page not in colours:
                    colours[page] = len(colours) % config.num_ranks
                expected.append(colours[page])
            assert ranks.tolist() == expected
        assert len(colours) > config.num_ranks
        simulator.reset()
        assert simulator._ranks_of_addresses(
            np.array([4096 * 999], dtype=np.int64)).tolist() == [0]
