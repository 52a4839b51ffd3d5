"""Tests for repro.core.scheduler, the memory controller's packet queue
and repro.core.hot_entry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hot_entry import HotEntryProfiler
from repro.core.instruction import NMPInstruction
from repro.core.memory_controller import NMPMemoryController
from repro.core.scheduler import fcfs_interleaved_order, table_aware_order
from repro.dlrm.operators import SLSRequest

from nmp_packets import packet_of


def _packet(table_id, batch_index, packet_id, model_id=0):
    return packet_of([NMPInstruction(daddr=packet_id)],
                     table_id=table_id, model_id=model_id,
                     batch_index=batch_index, packet_id=packet_id)


class TestOrderings:
    def test_fcfs_interleaves_sources(self):
        a = [_packet(0, 0, i) for i in range(3)]
        b = [_packet(1, 0, 10 + i) for i in range(3)]
        order = fcfs_interleaved_order([a, b])
        assert [p.table_id for p in order] == [0, 1, 0, 1, 0, 1]

    def test_fcfs_handles_uneven_sources(self):
        a = [_packet(0, 0, 0)]
        b = [_packet(1, 0, 1), _packet(1, 0, 2)]
        order = fcfs_interleaved_order([a, b])
        assert len(order) == 3

    def test_table_aware_groups_same_table(self):
        a = [_packet(0, 0, i) for i in range(3)]
        b = [_packet(1, 0, 10 + i) for i in range(3)]
        order = table_aware_order([a, b])
        assert [p.table_id for p in order] == [0, 0, 0, 1, 1, 1]

    def test_table_aware_separates_batches(self):
        packets = [_packet(0, 0, 0), _packet(0, 1, 1), _packet(0, 0, 2)]
        order = table_aware_order([packets])
        assert [p.packet_id for p in order] == [0, 2, 1]


POLICIES = ("fcfs", "table-aware")


class TestPacketScheduler:
    """The packet queue of ``NMPMemoryController``: ``submit`` adds one
    source, ``_take_schedule`` (the start of every dispatch) orders and
    empties the queue."""

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            NMPMemoryController(scheduling_policy="random")

    def test_schedule_preserves_packet_count(self):
        scheduler = NMPMemoryController(scheduling_policy="table-aware")
        scheduler.submit([_packet(0, 0, i) for i in range(4)])
        scheduler.submit([_packet(1, 0, 10 + i) for i in range(4)])
        assert len(scheduler._take_schedule()) == 8
        assert scheduler._take_schedule() == []

    def test_empty_schedule(self):
        assert NMPMemoryController()._take_schedule() == []

    @pytest.mark.parametrize("policy, order", [
        ("fcfs", fcfs_interleaved_order),
        ("table-aware", table_aware_order),
    ])
    def test_schedule_follows_the_policy(self, policy, order):
        sources = [[_packet(0, 0, 0), _packet(0, 1, 1)],
                   [_packet(1, 0, 2)],
                   [_packet(0, 0, 3), _packet(2, 0, 4), _packet(0, 1, 5)]]
        scheduler = NMPMemoryController(scheduling_policy=policy)
        for packets in sources:
            scheduler.submit(packets)
        assert [p.packet_id for p in scheduler._take_schedule()] == \
            [p.packet_id for p in order(sources)]

    def test_add_source_copies_the_list(self):
        packets = [_packet(0, 0, 0)]
        scheduler = NMPMemoryController()
        scheduler.submit(packets)
        packets.append(_packet(0, 0, 1))
        assert scheduler._take_schedule() == packets[:1]

    def test_table_aware_keeps_models_apart(self):
        a = [_packet(0, 0, 0, model_id=0), _packet(0, 0, 1, model_id=1)]
        b = [_packet(0, 0, 2, model_id=0)]
        order = table_aware_order([a, b])
        assert [p.packet_id for p in order] == [0, 2, 1]

    @given(sources=st.lists(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2),
                           st.integers(0, 1)), max_size=6),
        max_size=5),
        policy=st.sampled_from(POLICIES))
    @settings(max_examples=60, deadline=None)
    def test_schedule_is_a_permutation(self, sources, policy):
        """Both policies reorder packets and never drop or repeat one."""
        packet_id = iter(range(10 ** 6))
        packet_lists = [[_packet(table, batch, next(packet_id),
                                 model_id=model)
                         for table, batch, model in source]
                        for source in sources]
        scheduler = NMPMemoryController(scheduling_policy=policy)
        for packets in packet_lists:
            scheduler.submit(packets)
        issued = [p.packet_id for p in scheduler._take_schedule()]
        assert sorted(issued) == list(range(sum(map(len, packet_lists))))
        position = {pid: i for i, pid in enumerate(issued)}
        for packets in packet_lists:
            # Within one source, packets of one table/batch group issue
            # in source order under either policy.
            for key in sorted({(p.model_id, p.table_id, p.batch_index)
                               for p in packets}):
                ids = [position[p.packet_id] for p in packets
                       if (p.model_id, p.table_id, p.batch_index) == key]
                assert ids == sorted(ids)
            if policy == "fcfs":
                ids = [position[p.packet_id] for p in packets]
                assert ids == sorted(ids)


class TestHotEntryProfiler:
    def test_threshold_marks_repeated_rows(self):
        profiler = HotEntryProfiler(threshold=2)
        profile = profiler.profile([1, 2, 1, 3, 1, 2])
        assert profile.is_hot(1)
        assert profile.is_hot(2)
        assert not profile.is_hot(3)

    def test_threshold_one_marks_everything(self):
        profile = HotEntryProfiler(threshold=1).profile([4, 5, 6])
        assert profile.hot_rows == {4, 5, 6}

    def test_profile_requests_groups_by_table(self):
        profiler = HotEntryProfiler(threshold=2)
        requests = [
            SLSRequest(table_id=0, indices=[1, 1], lengths=[2]),
            SLSRequest(table_id=1, indices=[2, 3], lengths=[2]),
            SLSRequest(table_id=1, indices=[2, 4], lengths=[2]),
        ]
        results, _ = profiler.profile_requests_with_masks(requests)
        assert results[0].is_hot(1)
        # Row 2 appears twice for table 1 across the two requests.
        assert results[1].is_hot(2)
        assert not results[1].is_hot(3)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            HotEntryProfiler(threshold=0)
        # Rejected, not truncated to 1 (which marks every row hot).
        with pytest.raises(ValueError, match="integer"):
            HotEntryProfiler(threshold=1.5)

    @pytest.mark.parametrize("threshold", [2.0, np.float64(3.0)],
                             ids=["float", "numpy-float"])
    def test_integral_float_threshold_rejected(self, threshold):
        # Floats are not thresholds even when integral, as in the
        # generator's config.
        with pytest.raises(ValueError, match="integer"):
            HotEntryProfiler(threshold=threshold)

    def test_empty_profile_has_no_hot_accesses(self):
        profile = HotEntryProfiler(threshold=2).profile([])
        assert profile.hot_rows == set()

    def test_profile_records_table_and_threshold(self):
        profile = HotEntryProfiler(threshold=3).profile([7, 7, 7],
                                                        table_id=5)
        assert profile.table_id == 5
        assert profile.threshold == 3
        assert profile.access_counts == {7: 3}

    @given(indices=st.lists(st.integers(0, 20), max_size=60),
           threshold=st.integers(1, 5))
    @settings(max_examples=80, deadline=None)
    def test_mask_marks_exactly_the_hot_lookups(self, indices, threshold):
        profile, mask = HotEntryProfiler(threshold).profile_with_mask(
            indices)
        expected = [indices.count(row) >= threshold for row in indices]
        assert mask.dtype == np.bool_
        assert mask.tolist() == expected
        assert [profile.is_hot(row) for row in indices] == expected

    @given(indices=st.lists(st.integers(0, 10), min_size=1, max_size=40),
           threshold=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_higher_threshold_never_adds_hot_rows(self, indices, threshold):
        lower = HotEntryProfiler(threshold).profile(indices)
        higher = HotEntryProfiler(threshold + 1).profile(indices)
        assert higher.hot_rows <= lower.hot_rows

    def test_request_masks_use_the_batch_wide_profile(self):
        """Row 2 repeats only across table 1's two requests; each
        request's mask is its own slice of the table-wide mask."""
        requests = [
            SLSRequest(table_id=1, indices=[2, 3], lengths=[2]),
            SLSRequest(table_id=0, indices=[2, 9], lengths=[2]),
            SLSRequest(table_id=1, indices=[4, 2, 2], lengths=[3]),
        ]
        profiles, masks = HotEntryProfiler(
            threshold=2).profile_requests_with_masks(requests)
        assert sorted(profiles) == [0, 1]
        assert [mask.tolist() for mask in masks] == [
            [True, False], [False, False], [False, True, True]]
        assert profiles[1].access_counts == {2: 3, 3: 1, 4: 1}
