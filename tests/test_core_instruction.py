"""Tests for repro.core.instruction (NMP-Inst and NMP packets)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instruction import (
    DDR_CMD_ACT,
    DDR_CMD_RD,
    NMPInstruction,
    NMPOpcode,
    TOTAL_INSTRUCTION_BITS,
)
from repro.core.packet_generator import PacketGenerator, PacketGeneratorConfig
from repro.core.rank_nmp import RankNMPConfig
from repro.core.simulator import RecNMPConfig
from repro.dlrm.operators import SLSRequest

from nmp_packets import instructions_of, packet_of


class TestInstructionFormat:
    def test_width_is_79_bits(self):
        # Fig. 8(d): the NMP-Inst is 79 bits.
        assert TOTAL_INSTRUCTION_BITS == 79
        assert NMPInstruction.bit_width() == 79

    def test_fits_standard_ca_dq_interface(self):
        # The paper notes the format fits the 84-pin C/A + DQ interface.
        assert TOTAL_INSTRUCTION_BITS <= 84

    def test_field_validation(self):
        with pytest.raises(ValueError):
            NMPInstruction(vsize=0)
        with pytest.raises(ValueError):
            NMPInstruction(vsize=16)
        with pytest.raises(ValueError):
            NMPInstruction(psum_tag=16)
        with pytest.raises(ValueError):
            NMPInstruction(daddr=1 << 32)
        with pytest.raises(ValueError):
            NMPInstruction(ddr_cmd=8)


class TestEncodeDecode:
    def test_roundtrip(self):
        inst = NMPInstruction(opcode=NMPOpcode.WEIGHTED_SUM,
                              ddr_cmd=DDR_CMD_ACT | DDR_CMD_RD,
                              daddr=0xDEADBEEF, vsize=4, weight=2.5,
                              locality_bit=True, psum_tag=11)
        decoded = NMPInstruction.decode(inst.encode())
        assert decoded.opcode is NMPOpcode.WEIGHTED_SUM
        assert decoded.ddr_cmd == inst.ddr_cmd
        assert decoded.daddr == inst.daddr
        assert decoded.vsize == 4
        assert decoded.weight == pytest.approx(2.5)
        assert decoded.locality_bit is True
        assert decoded.psum_tag == 11

    def test_encoded_fits_width(self):
        inst = NMPInstruction(daddr=0xFFFFFFFF, vsize=15, psum_tag=15,
                              weight=-1e30, ddr_cmd=7,
                              opcode=NMPOpcode.WEIGHTED_MEAN_8BIT)
        assert inst.encode() < (1 << TOTAL_INSTRUCTION_BITS)

    def test_decode_range_check(self):
        with pytest.raises(ValueError):
            NMPInstruction.decode(-1)
        with pytest.raises(ValueError):
            NMPInstruction.decode(1 << TOTAL_INSTRUCTION_BITS)

    @given(opcode=st.sampled_from(list(NMPOpcode)),
           ddr_cmd=st.integers(min_value=0, max_value=7),
           daddr=st.integers(min_value=0, max_value=(1 << 32) - 1),
           vsize=st.integers(min_value=1, max_value=15),
           weight=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                            width=32),
           locality=st.booleans(),
           psum_tag=st.integers(min_value=0, max_value=15))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, opcode, ddr_cmd, daddr, vsize, weight,
                                locality, psum_tag):
        inst = NMPInstruction(opcode=opcode, ddr_cmd=ddr_cmd, daddr=daddr,
                              vsize=vsize, weight=weight,
                              locality_bit=locality, psum_tag=psum_tag)
        decoded = NMPInstruction.decode(inst.encode())
        assert decoded.opcode is opcode
        assert decoded.ddr_cmd == ddr_cmd
        assert decoded.daddr == daddr
        assert decoded.vsize == vsize
        assert decoded.locality_bit == locality
        assert decoded.psum_tag == psum_tag
        if not math.isnan(weight):
            assert decoded.weight == pytest.approx(weight, rel=1e-6)


class TestNMPPacket:
    def test_counts(self):
        instructions = [NMPInstruction(psum_tag=i % 4, daddr=i)
                        for i in range(12)]
        packet = packet_of(instructions, table_id=2)
        assert len(packet) == 12
        assert len(set(packet.instructions.psum_tags.tolist())) == 4
        assert instructions_of(packet) == instructions

    def test_empty_packet(self):
        packet = packet_of([])
        assert len(packet) == 0
        assert len(packet.instructions.psum_tags) == 0

    def test_too_many_poolings_rejected(self):
        # PsumTag is 4 bits -> max 16 poolings; NMPInstruction rejects larger
        # tags so a >16-pooling packet cannot even be constructed.
        with pytest.raises(ValueError):
            [NMPInstruction(psum_tag=tag) for tag in range(17)]


@settings(max_examples=120, deadline=None)
@given(lengths=st.lists(st.integers(1, 12), min_size=1, max_size=40),
       poolings_per_packet=st.integers(1, 16),
       opcode=st.sampled_from(list(NMPOpcode)),
       vector_bytes=st.sampled_from([64, 128, 256, 960]),
       profiling=st.booleans(),
       base_block=st.integers(0, 1 << 34)
       | st.integers((1 << 32) - 4000, (1 << 32) + 100),
       data=st.data())
def test_generated_rows_are_isa_instructions(lengths, poolings_per_packet,
                                             opcode, vector_bytes, profiling,
                                             base_block, data):
    """Every row of a generated column packet is a valid NMP-Inst (the
    record's range checks accept it) and survives the 79-bit
    ``encode``/``decode`` round trip field for field."""
    total = sum(lengths)
    indices = data.draw(st.lists(st.integers(0, 300), min_size=total,
                                 max_size=total), label="indices")
    weights = data.draw(st.none() | st.lists(
        st.just(1.0) | st.floats(-4.0, 4.0, width=32), min_size=total,
        max_size=total), label="weights")
    request = SLSRequest(table_id=3, indices=indices, lengths=lengths,
                         weights=weights)
    config = PacketGeneratorConfig(
        poolings_per_packet=poolings_per_packet,
        vector_size_bytes=vector_bytes, enable_hot_entry_profiling=profiling,
        opcode=opcode)
    # Addresses run past 2**38 bytes, where Daddr (64 B blocks) wraps
    # at its 32 bits.
    generator = PacketGenerator(config, lambda table_id, row:
                                (base_block + row * (vector_bytes // 64))
                                * 64)
    packets = generator.packets_for_requests([request])
    assert sum(len(packet) for packet in packets) == total
    for packet in packets:
        records = instructions_of(packet)
        assert len({record.psum_tag for record in records}) \
            <= poolings_per_packet
        for record in records:
            decoded = NMPInstruction.decode(record.encode())
            assert (decoded.opcode, decoded.ddr_cmd, decoded.daddr,
                    decoded.vsize, decoded.weight, decoded.locality_bit,
                    decoded.psum_tag) == \
                (opcode, record.ddr_cmd, record.daddr,
                 vector_bytes // 64, record.weight, record.locality_bit,
                 record.psum_tag)
    weights_out = [record.weight for packet in packets
                   for record in instructions_of(packet)]
    assert weights_out == (request.weights.tolist() if weights is not None
                           else [1.0] * total)


@pytest.mark.parametrize("config_class", [PacketGeneratorConfig,
                                          RecNMPConfig, RankNMPConfig])
class TestVectorSizeLimit:
    """vsize is 4 bits, so a vector is at most 15 bursts (960 B); every
    config that carries a vector size rejects larger ones up front."""

    def test_largest_encodable_vector_accepted(self, config_class):
        assert config_class(vector_size_bytes=960).vector_size_bytes == 960

    @pytest.mark.parametrize("vector_bytes", [1024, 4096])
    def test_oversized_vector_rejected(self, config_class, vector_bytes):
        with pytest.raises(ValueError,
                           match=r"vector_size_bytes=%d .*960-byte limit"
                           % vector_bytes):
            config_class(vector_size_bytes=vector_bytes)


def test_largest_vector_encodes_in_packets():
    generator = PacketGenerator(PacketGeneratorConfig(
        vector_size_bytes=960, enable_hot_entry_profiling=False))
    request = SLSRequest(table_id=0, indices=np.arange(4),
                         lengths=np.array([4]))
    instruction = instructions_of(
        generator.packets_for_requests([request])[0])[0]
    assert instruction.vsize == 15
    assert NMPInstruction.decode(instruction.encode()).vsize == 15
