"""Tests for repro.core.instruction (NMP-Inst and NMP packets)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instruction import (
    DDR_CMD_ACT,
    DDR_CMD_PRE,
    DDR_CMD_RD,
    NMPInstruction,
    NMPOpcode,
    NMPPacket,
    TOTAL_INSTRUCTION_BITS,
)
from repro.core.packet_generator import PacketGenerator, PacketGeneratorConfig
from repro.core.rank_nmp import RankNMPConfig
from repro.core.simulator import RecNMPConfig
from repro.dlrm.operators import SLSRequest


class TestInstructionFormat:
    def test_width_is_79_bits(self):
        # Fig. 8(d): the NMP-Inst is 79 bits.
        assert TOTAL_INSTRUCTION_BITS == 79
        assert NMPInstruction.bit_width() == 79

    def test_fits_standard_ca_dq_interface(self):
        # The paper notes the format fits the 84-pin C/A + DQ interface.
        assert TOTAL_INSTRUCTION_BITS <= 84

    def test_ddr_cmd_flags(self):
        inst = NMPInstruction(ddr_cmd=DDR_CMD_ACT | DDR_CMD_RD)
        assert inst.needs_activate
        assert inst.needs_read
        assert not inst.needs_precharge

    def test_vector_bytes(self):
        assert NMPInstruction(vsize=1).vector_bytes == 64
        assert NMPInstruction(vsize=4).vector_bytes == 256

    def test_ddr_command_count(self):
        full = NMPInstruction(ddr_cmd=DDR_CMD_ACT | DDR_CMD_RD | DDR_CMD_PRE,
                              vsize=2)
        assert full.ddr_command_count() == 4    # PRE + ACT + 2 x RD
        hit = NMPInstruction(ddr_cmd=DDR_CMD_RD, vsize=1)
        assert hit.ddr_command_count() == 1

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
        packet = NMPPacket(instructions=instructions, table_id=2)
        assert len(packet) == 12
        assert packet.num_poolings == 4
        assert packet.total_vector_bytes == 12 * 64

    def test_groups_by_psum(self):
        instructions = [NMPInstruction(psum_tag=i % 2, daddr=i)
                        for i in range(6)]
        groups = NMPPacket(instructions=instructions).instructions_by_psum()
        assert set(groups) == {0, 1}
        assert len(groups[0]) == 3

    def test_locality_fraction(self):
        instructions = [NMPInstruction(locality_bit=(i < 3), daddr=i)
                        for i in range(6)]
        packet = NMPPacket(instructions=instructions)
        assert packet.locality_fraction() == pytest.approx(0.5)

    def test_empty_packet(self):
        packet = NMPPacket()
        assert len(packet) == 0
        assert packet.locality_fraction() == 0.0

    def test_too_many_poolings_rejected(self):
        # PsumTag is 4 bits -> max 16 poolings; NMPInstruction rejects larger
        # tags so a >16-pooling packet cannot even be constructed.
        with pytest.raises(ValueError):
            [NMPInstruction(psum_tag=tag) for tag in range(17)]


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
    instruction = generator.packets_for_request(request)[0].instructions[0]
    assert instruction.vsize == 15
    assert NMPInstruction.decode(instruction.encode()).vsize == 15
