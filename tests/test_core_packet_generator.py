"""Tests for repro.core.packet_generator."""

import numpy as np
import pytest

from repro.core.instruction import DDR_CMD_ACT, DDR_CMD_PRE, DDR_CMD_RD
from repro.core.packet_generator import PacketGenerator, PacketGeneratorConfig
from repro.core.simulator import RecNMPConfig
from repro.dlrm.operators import SLSRequest

from nmp_packets import instructions_of


def _request(table_id=0, batch=4, pooling=8, num_rows=1000, seed=0,
             weights=False):
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, num_rows, size=batch * pooling)
    lengths = np.full(batch, pooling)
    w = rng.random(batch * pooling).astype(np.float32) if weights else None
    return SLSRequest(table_id=table_id, indices=indices, lengths=lengths,
                      weights=w)


class TestConfigValidation:
    def test_poolings_bounded_by_psumtag(self):
        with pytest.raises(ValueError):
            PacketGeneratorConfig(poolings_per_packet=17)
        with pytest.raises(ValueError):
            PacketGeneratorConfig(poolings_per_packet=0)

    @pytest.mark.parametrize("field, value", [
        ("poolings_per_packet", 2.5), ("poolings_per_packet", 8.0),
        ("poolings_per_packet", 16.0), ("poolings_per_packet", "4"),
        ("hot_entry_threshold", 1.5), ("hot_entry_threshold", 0),
        ("hot_entry_threshold", 2.0), ("hot_entry_threshold", -1)])
    def test_non_integral_or_zero_fields_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            PacketGeneratorConfig(**{field: value})
        with pytest.raises(ValueError, match=field):
            RecNMPConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        config = PacketGeneratorConfig(poolings_per_packet=np.int64(2),
                                       hot_entry_threshold=np.int32(3))
        packets = PacketGenerator(config).packets_for_requests(
            [_request(batch=4, pooling=3)])
        assert len(packets) == 2

    def test_vector_size_multiple_of_64(self):
        with pytest.raises(ValueError):
            PacketGeneratorConfig(vector_size_bytes=100)

    def test_vsize(self):
        assert PacketGeneratorConfig(vector_size_bytes=256).vsize == 4


class TestPacketGeneration:
    def test_instruction_count_matches_lookups(self):
        generator = PacketGenerator(PacketGeneratorConfig(
            poolings_per_packet=4, enable_hot_entry_profiling=False))
        request = _request(batch=8, pooling=10)
        packets = generator.packets_for_requests([request])
        assert sum(len(p) for p in packets) == 80
        assert len(packets) == 2                  # 8 poolings / 4 per packet

    def test_psum_tags_within_packet(self):
        generator = PacketGenerator(PacketGeneratorConfig(
            poolings_per_packet=4, enable_hot_entry_profiling=False))
        packets = generator.packets_for_requests(
            [_request(batch=8, pooling=5)])
        for packet in packets:
            assert len(set(packet.instructions.psum_tags.tolist())) == 4
            assert all(inst.psum_tag < 4
                       for inst in instructions_of(packet))

    def test_addresses_use_address_of(self):
        config = PacketGeneratorConfig(enable_hot_entry_profiling=False)
        generator = PacketGenerator(
            config, address_of=lambda table, row: 1_000_000 + row * 64)
        packets = generator.packets_for_requests(
            [_request(batch=1, pooling=4)])
        for inst in instructions_of(packets[0]):
            assert inst.daddr * 64 >= 1_000_000

    def test_weights_propagated(self):
        generator = PacketGenerator(PacketGeneratorConfig(
            enable_hot_entry_profiling=False))
        request = _request(batch=2, pooling=3, weights=True)
        packets = generator.packets_for_requests([request])
        weights = [inst.weight for p in packets
                   for inst in instructions_of(p)]
        assert weights == pytest.approx(request.weights.tolist(), rel=1e-6)

    def test_ddr_cmd_tags_reflect_row_locality(self):
        # Consecutive rows in the same 8 KB DRAM row must elide ACT/PRE.
        config = PacketGeneratorConfig(enable_hot_entry_profiling=False)
        generator = PacketGenerator(config,
                                    address_of=lambda t, row: row * 64)
        request = SLSRequest(table_id=0, indices=[0, 1, 2, 1000],
                             lengths=[4])
        packet = generator.packets_for_requests([request])[0]
        tags = [inst.ddr_cmd for inst in instructions_of(packet)]
        assert tags[0] == DDR_CMD_ACT | DDR_CMD_RD | DDR_CMD_PRE
        assert tags[1] == DDR_CMD_RD
        assert tags[2] == DDR_CMD_RD
        assert tags[3] == DDR_CMD_ACT | DDR_CMD_RD | DDR_CMD_PRE

    def test_hot_entry_profiling_sets_locality_bits(self):
        config = PacketGeneratorConfig(poolings_per_packet=2,
                                       enable_hot_entry_profiling=True,
                                       hot_entry_threshold=2)
        generator = PacketGenerator(config)
        # Row 5 repeats 4 times, rows 10..15 appear once each.
        request = SLSRequest(table_id=0,
                             indices=[5, 10, 5, 11, 5, 12, 5, 13],
                             lengths=[4, 4])
        packet = generator.packets_for_requests([request])[0]
        for inst in instructions_of(packet):
            if inst.row_index == 5:
                assert inst.locality_bit
            else:
                assert not inst.locality_bit

    def test_profiling_disabled_marks_everything_cacheable(self):
        config = PacketGeneratorConfig(enable_hot_entry_profiling=False)
        packet = PacketGenerator(config).packets_for_requests([
            _request(batch=1, pooling=6)])[0]
        assert packet.instructions.localities.all()

    def test_packet_metadata(self):
        generator = PacketGenerator(PacketGeneratorConfig(
            enable_hot_entry_profiling=False))
        packets = generator.packets_for_requests(
            [_request(table_id=3, batch=2, pooling=2)], model_id=7)
        assert packets[0].table_id == 3
        assert packets[0].model_id == 7

    def test_packet_ids_unique(self):
        generator = PacketGenerator(PacketGeneratorConfig(
            poolings_per_packet=1, enable_hot_entry_profiling=False))
        packets = generator.packets_for_requests(
            [_request(batch=6, pooling=2)])
        ids = [p.packet_id for p in packets]
        assert len(set(ids)) == len(ids)

    def test_reset_restarts_packet_ids(self):
        generator = PacketGenerator(PacketGeneratorConfig(
            poolings_per_packet=1))
        generator.packets_for_requests([_request(batch=4, pooling=2)])
        assert generator._packet_counter > 0
        generator.reset()
        assert generator._packet_counter == 0
        packets = generator.packets_for_requests(
            [_request(batch=2, pooling=2)])
        assert packets[0].packet_id == 0

    def test_vsize_stamped_from_config(self):
        config = PacketGeneratorConfig(vector_size_bytes=256,
                                       enable_hot_entry_profiling=False)
        packet = PacketGenerator(config).packets_for_requests([
            _request(batch=1, pooling=3)])[0]
        assert packet.instructions.vsizes.tolist() == [4, 4, 4]

