"""Tests for repro.core.rank_nmp and processing_unit."""

import numpy as np
import pytest

from repro.core import kernels
from repro.core.instruction import (
    DDR_CMD_ACT,
    DDR_CMD_PRE,
    DDR_CMD_RD,
    NMPInstruction,
    PackedInstructions,
)
from repro.core.memory_controller import NMPMemoryController
from repro.core.processing_unit import RecNMPChannel
from repro.core.rank_nmp import RankNMPConfig
from repro.dram.timing import DDR4_2400

from ddr4_reference import CommandType
from nmp_packets import (
    packet_of,
    run_instruction,
    run_instructions,
    single_rank,
)
from rank_nmp_reference import reference_rank, timing_state

FULL_CMD = DDR_CMD_ACT | DDR_CMD_RD | DDR_CMD_PRE


def _instructions(count, stride_blocks=1000, vsize=1, locality=True):
    return [NMPInstruction(ddr_cmd=FULL_CMD, daddr=i * stride_blocks,
                           vsize=vsize, locality_bit=locality)
            for i in range(count)]


class TestRankNMPConfig:
    @pytest.mark.parametrize("field, value", [
        ("columns_per_row", 0),
        ("num_bank_groups", 0),
        ("banks_per_group", 0),
        ("banks_per_group", -2),
        ("adder_latency_cycles", -10),
        ("multiplier_latency_cycles", -1),
    ])
    def test_bad_geometry_and_latency_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            RankNMPConfig(**{field: value})

    def test_zero_latencies_accepted(self):
        config = RankNMPConfig(adder_latency_cycles=0,
                               multiplier_latency_cycles=0)
        assert run_instruction(single_rank(config), _instructions(1)[0]) > 0


class TestRankNMP:
    """One rank-NMP: rank 0 of a one-rank channel, fed the channel's own
    columns by ``nmp_packets.run_instructions``."""

    def test_single_miss_latency(self):
        rank = single_rank(RankNMPConfig(use_cache=False))
        completion = run_instruction(rank, _instructions(1)[0])
        minimum = DDR4_2400.tRCD + DDR4_2400.tCL + DDR4_2400.tBL
        assert completion >= minimum

    def test_cache_hit_is_fast(self):
        config = RankNMPConfig(use_cache=True, cache_capacity_bytes=4096)
        rank = single_rank(config)
        inst = _instructions(1)[0]
        run_instruction(rank, inst)
        start = _current(rank)
        completion = run_instruction(rank, inst)
        assert _stats(rank).cache_hits == 1
        assert completion - start <= (config.cache_latency_cycles
                                      + config.adder_latency_cycles)

    def test_bypass_skips_cache(self):
        rank = single_rank(RankNMPConfig(use_cache=True))
        inst = NMPInstruction(ddr_cmd=FULL_CMD, daddr=10, locality_bit=False)
        run_instruction(rank, inst)
        run_instruction(rank, inst)
        assert _stats(rank).cache_hits == 0
        assert _stats(rank).cache_bypasses == 2

    def test_throughput_pipelines_row_misses(self):
        # 64 random-row lookups must take far less than 64 serialized
        # PRE+ACT+RD latency chains thanks to bank-level pipelining.
        rank = single_rank(RankNMPConfig(use_cache=False))
        instructions = _instructions(64, stride_blocks=997)
        last = run_instructions(rank, instructions)
        serialized = 64 * (DDR4_2400.tRP + DDR4_2400.tRCD + DDR4_2400.tCL)
        assert last < serialized * 0.5

    def test_weighted_instruction_uses_multiplier(self):
        config = RankNMPConfig(use_cache=False)
        rank = single_rank(config)
        unweighted = run_instruction(
            rank, NMPInstruction(ddr_cmd=FULL_CMD, daddr=1, weight=1.0))
        rank2 = single_rank(config)
        weighted = run_instruction(
            rank2, NMPInstruction(ddr_cmd=FULL_CMD, daddr=1, weight=0.5))
        assert weighted == unweighted + config.multiplier_latency_cycles

    def test_stats_bytes(self):
        rank = single_rank(RankNMPConfig(use_cache=False,
                                         vector_size_bytes=256))
        run_instructions(rank, _instructions(4, vsize=4))
        assert _stats(rank).bytes_from_dram == 4 * 256

    def test_reset(self):
        rank = single_rank()
        run_instructions(rank, _instructions(4))
        rank.reset()
        assert _current(rank) == 0
        assert _stats(rank).instructions == 0
        assert rank._state.caches[0].occupancy == 0

    def test_arrival_cycles_respected(self):
        rank = single_rank(RankNMPConfig(use_cache=False))
        completion = run_instruction(rank, _instructions(1)[0],
                                     arrival_cycle=500)
        assert completion > 500

    @pytest.mark.parametrize("flavor", ["python", "flat-python"])
    def test_negative_daddr_rejected_before_any_state_changes(self, flavor):
        # The stream is validated before its first instruction runs, so
        # the valid Daddrs ahead of the bad one leave no trace either.
        with kernels.force_flavor(flavor):
            rank = single_rank()
        run_instructions(rank, _instructions(3))
        before = _state(rank)
        packed = PackedInstructions(
            np.array([5, 4096, -3], dtype=np.int64),
            np.ones(3, dtype=np.int64), np.zeros(3, dtype=bool),
            np.ones(3, dtype=bool), np.arange(3, dtype=np.int64))
        with pytest.raises(ValueError, match="non-negative"):
            rank.execute_packed(packed)
        assert _state(rank) == before

    @pytest.mark.parametrize("flavor", ["python", "flat-python"])
    def test_negative_daddr_rejected_without_cache(self, flavor):
        # Row -1 marks a closed bank in the flat state, and a negative
        # Daddr decodes to a negative row: it is refused with or without
        # a RankCache, by a one-rank and a two-rank channel, before
        # anything runs.
        config = RankNMPConfig(use_cache=False)
        with kernels.force_flavor(flavor):
            rank = single_rank(config)
            channel = RecNMPChannel(num_dimms=1, ranks_per_dimm=2,
                                    rank_config=config)
        packed = PackedInstructions(
            np.array([5, -3], dtype=np.int64), np.ones(2, dtype=np.int64),
            np.zeros(2, dtype=bool), np.ones(2, dtype=bool),
            np.arange(2, dtype=np.int64))
        with pytest.raises(ValueError, match="non-negative, got -3"):
            rank.execute_packed(packed)
        with pytest.raises(ValueError, match="non-negative, got -3"):
            channel.execute_packed(packed, ranks=[0, 1])
        assert _stats(rank).instructions == 0
        assert channel.aggregate_stats()["instructions"] == 0


def _stats(rank):
    """The ``RankNMPStats`` of a :func:`single_rank`'s rank-NMP."""
    return rank._state.stats[0]


def _current(rank):
    """The cycle from which a :func:`single_rank`'s next instruction can
    issue."""
    return int(rank._state.current[0])


def _state(rank):
    """Rank-NMP, bank, rank and cache state, for before/after checks."""
    cache = rank._state.caches[0]
    return (_stats(rank).as_dict(), list(cache._entries),
            cache.stats.as_dict(), timing_state(rank._state))


def _estimated_start(rank, instruction, arrival_cycle):
    """Earliest cycle the first command of an instruction could issue.

    The windowed scheduler uses it to avoid head-of-line blocking: an
    instruction whose bank is still serving tRAS/tRC from an earlier
    access can be deferred in favour of one whose bank is ready.
    """
    start = max(_current(rank), arrival_cycle)
    cache = rank._state.caches[0]
    if cache is not None and instruction.locality_bit and \
            cache.contains(instruction.daddr):
        return start
    bank_group, bank_index, row = kernels.pack_decoded(
        rank.rank_config, int(instruction.daddr))
    dram_rank = reference_rank(rank._state)
    bank = dram_rank.bank(bank_group, bank_index)
    if bank.is_row_hit(row):
        command = CommandType.RD
    elif bank.is_row_closed():
        command = CommandType.ACT
    else:
        command = CommandType.PRE
    return dram_rank.earliest_issue_cycle(command, bank_group, bank_index,
                                          start)


def _reference_execute_instructions(rank, instructions, arrival_cycles,
                                    reorder_window=16):
    """The pre-optimisation windowed scheduler, verbatim.

    ``_estimated_start`` is the readable specification of what the
    window scan of ``execute_segments`` must compute; this
    reference loop re-evaluates it for every window member on every
    iteration exactly like the original code, so the randomized
    equivalence test below keeps the two from silently diverging.
    """
    pending = list(zip(instructions, arrival_cycles))
    last_completion = _current(rank)
    while pending:
        window = pending[:max(1, reorder_window)]
        best_index = 0
        best_start = None
        for index, (instruction, arrival) in enumerate(window):
            estimate = _estimated_start(rank, instruction, arrival)
            if best_start is None or estimate < best_start:
                best_start = estimate
                best_index = index
        instruction, arrival = pending.pop(best_index)
        last_completion = max(
            last_completion,
            run_instruction(rank, instruction, arrival_cycle=arrival))
    return last_completion


class TestSchedulerEquivalence:
    """The memoised window scheduler must match the _estimated_start spec."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("use_cache", [True, False])
    def test_randomized_streams_cycle_identical(self, seed, use_cache):
        rng = np.random.default_rng(seed)
        config = RankNMPConfig(use_cache=use_cache,
                               cache_capacity_bytes=4096)
        count = 80
        instructions = [
            NMPInstruction(
                ddr_cmd=FULL_CMD,
                daddr=int(rng.integers(0, 4000)),
                vsize=int(rng.choice([1, 2])),
                weight=float(rng.choice([1.0, 0.5])),
                locality_bit=bool(rng.integers(0, 2)),
                psum_tag=int(rng.integers(0, 8)))
            for _ in range(count)
        ]
        arrivals = np.sort(rng.integers(0, 40, size=count)).tolist()
        window = int(rng.choice([1, 4, 16]))

        fast = single_rank(config)
        fast_last = run_instructions(
            fast, list(instructions), arrival_cycles=list(arrivals),
            reorder_window=window)
        reference = single_rank(config)
        reference_last = _reference_execute_instructions(
            reference, list(instructions), list(arrivals),
            reorder_window=window)

        assert fast_last == reference_last
        assert _current(fast) == _current(reference)
        assert _stats(fast).as_dict() == _stats(reference).as_dict()
        if use_cache:
            assert list(fast._state.caches[0]._entries) == \
                list(reference._state.caches[0]._entries)


class TestRecNMPChannel:
    def test_rank_indexing(self):
        channel = RecNMPChannel(num_dimms=2, ranks_per_dimm=2)
        assert channel.num_ranks == 4
        state = channel._state
        assert state.num_ranks == 4
        assert len(state.stats) == len(state.caches) == 4
        assert len({id(cache) for cache in state.caches}) == 4
        assert len(state.open_row) == 4 * state.banks_per_rank

    def test_validation(self):
        with pytest.raises(ValueError):
            RecNMPChannel(num_dimms=0)
        with pytest.raises(ValueError):
            RecNMPChannel(ranks_per_dimm=0)

    def test_packet_execution_uses_all_ranks(self):
        # Default routing is Daddr modulo the rank count, so consecutive
        # blocks spread evenly over the channel's ranks.
        channel = RecNMPChannel(num_dimms=2, ranks_per_dimm=2,
                                rank_config=RankNMPConfig(use_cache=False))
        packet = packet_of(_instructions(16, stride_blocks=1))
        completion = channel.execute_packet(packet)
        loads = [stats.instructions for stats in channel._state.stats]
        assert loads == [4, 4, 4, 4]
        assert completion >= max(channel._state.current)

    def test_more_ranks_is_faster(self):
        def run(ranks_per_dimm):
            channel = RecNMPChannel(
                num_dimms=1, ranks_per_dimm=ranks_per_dimm,
                rank_config=RankNMPConfig(use_cache=False))
            return channel.execute_packet(packet_of(
                _instructions(64, stride_blocks=997)))

        assert run(4) < run(1)

    def test_packet_execution_scales_with_ranks(self):
        def run(num_dimms, ranks_per_dimm):
            channel = RecNMPChannel(
                num_dimms=num_dimms, ranks_per_dimm=ranks_per_dimm,
                rank_config=RankNMPConfig(use_cache=False))
            packet = packet_of(
                _instructions(128, stride_blocks=997))
            return channel.execute_packet(packet)

        two_ranks = run(1, 2)
        eight_ranks = run(4, 2)
        assert eight_ranks < two_ranks

    def test_custom_rank_assignment(self):
        channel = RecNMPChannel(num_dimms=1, ranks_per_dimm=2,
                                rank_config=RankNMPConfig(use_cache=False))
        packet = packet_of(_instructions(8))
        channel.execute_packet(packet, ranks=[1] * 8)
        stats = channel.aggregate_stats()
        assert stats["instructions"] == 8
        assert channel._state.stats[0].instructions == 0
        assert channel._state.stats[1].instructions == 8

    @pytest.mark.parametrize("num_ranks_given", [2, 9])
    def test_rank_count_must_match_packet(self, num_ranks_given):
        # Too few ranks used to drop the unmatched instructions silently
        # (2 of 8 ran); too many raised a bare IndexError.
        channel = RecNMPChannel(num_dimms=1, ranks_per_dimm=2)
        packet = packet_of(_instructions(8))
        ranks = [0] * num_ranks_given
        message = "ranks has %d entries for a 8-instruction packet" \
            % num_ranks_given
        with pytest.raises(ValueError, match=message):
            channel.execute_packet(packet, ranks=ranks)
        with pytest.raises(ValueError, match=message):
            channel.execute_packed(packet.instructions, ranks=ranks)
        assert channel.aggregate_stats()["instructions"] == 0

    @pytest.mark.parametrize("order", [[0, 0, 0, 1, 2, 3], [5, 4, 3, 2, 1],
                                       [0, 1, 2, 3, 4, 6],
                                       [0, 1, 2, 3, 4, 5, 0]])
    def test_order_must_be_a_permutation(self, order):
        # [0, 0, 0, 1, 2, 3] used to run instruction 0 three times and
        # drop instructions 4 and 5 without a word.
        channel = RecNMPChannel(num_dimms=1, ranks_per_dimm=2)
        packet = packet_of(_instructions(6))
        message = r"order \[%s\] is not a permutation of the packet's 6 " \
            r"instructions" % ", ".join(str(index) for index in order)
        with pytest.raises(ValueError, match=message):
            channel.execute_packet(packet, order=order)
        assert channel.aggregate_stats()["instructions"] == 0
        assert channel.execute_packet(packet, order=[5, 4, 3, 2, 1, 0]) > 0
        assert channel.aggregate_stats()["instructions"] == 6

    def test_invalid_rank_assignment_rejected(self):
        channel = RecNMPChannel(num_dimms=1, ranks_per_dimm=2)
        packet = packet_of(_instructions(1))
        with pytest.raises(ValueError, match="invalid rank 5"):
            channel.execute_packet(packet, ranks=[5])

    def test_aggregate_stats_hit_rate(self):
        channel = RecNMPChannel(num_dimms=1, ranks_per_dimm=1)
        instructions = _instructions(4, stride_blocks=0)  # same address
        packet = packet_of(instructions)
        channel.execute_packet(packet)
        stats = channel.aggregate_stats()
        assert stats["cache_hits"] == 3
        assert stats["cache_hit_rate"] == pytest.approx(0.75)

    @pytest.mark.parametrize("flavor", ["python", "flat-python"])
    def test_rank_reset_refills_only_its_slice(self, flavor):
        # The ranks of a channel share one flat state: resetting one
        # rank refills its banks and scalars and leaves the others.
        with kernels.force_flavor(flavor):
            channel = RecNMPChannel(num_dimms=2, ranks_per_dimm=2)
            fresh = RecNMPChannel(num_dimms=2, ranks_per_dimm=2)._state
        channel.execute_packet(packet_of(_instructions(32, stride_blocks=5)))
        state = channel._state

        def snapshot():
            return [(timing_state(state, rank),
                     state.stats[rank].as_dict(),
                     list(state.caches[rank]._entries))
                    for rank in range(4)]

        before = snapshot()
        assert all(ranks[0][0] > 0 for ranks in before)
        state.reset(2)
        after = snapshot()
        assert after[2] == (timing_state(fresh, 2),
                            fresh.stats[2].as_dict(), [])
        assert after[:2] + after[3:] == before[:2] + before[3:]

    def test_reset(self):
        channel = RecNMPChannel(num_dimms=1, ranks_per_dimm=2)
        packet = packet_of(_instructions(4, stride_blocks=1))
        first = channel.execute_packet(packet)
        channel.reset()
        assert channel.aggregate_stats()["instructions"] == 0
        assert list(channel._state.current) == [0, 0]
        assert channel.execute_packet(packet) == first

    @pytest.mark.parametrize("num_dimms,ranks_per_dimm",
                             [(1, 2), (1, 4), (2, 2), (2, 4), (4, 2)])
    def test_prepared_arrivals_never_decrease_per_rank(self, num_dimms,
                                                       ranks_per_dimm):
        # execute_segments ends each window scan at the first member
        # that cannot win, which holds because a rank's instructions
        # reach it in issue order: the controller's FR-FCFS issue order
        # must leave every segment's arrival offsets non-decreasing.
        channel = RecNMPChannel(num_dimms=num_dimms,
                                ranks_per_dimm=ranks_per_dimm)
        controller = NMPMemoryController(num_ranks=channel.num_ranks)
        rng = np.random.default_rng(num_dimms * 10 + ranks_per_dimm)
        packed_list = [packet_of([
            NMPInstruction(ddr_cmd=FULL_CMD,
                           daddr=int(rng.integers(0, 1 << 12)),
                           psum_tag=i % 4)
            for i in range(int(rng.integers(1, 60)))]).instructions
            for _ in range(5)]
        ranks, issue = controller._issue_orders(packed_list)
        assert issue is not None
        assert not np.array_equal(issue, np.arange(len(issue)))
        columns, segments, _ = channel._prepare(packed_list, ranks, issue)
        offsets = np.asarray(columns[4])
        spans = [span for packet in segments for span in packet]
        assert sum(end - begin for _, begin, end in spans) == len(ranks)
        for _, begin, end in spans:
            assert np.all(np.diff(offsets[begin:end]) >= 0)
