"""The compressed NMP instruction (NMP-Inst) and NMP packet formats.

Figure 8(d) of the paper defines a 79-bit instruction with the fields:

======================  ======  =========================================
field                   bits    meaning
======================  ======  =========================================
opcode                  3       which SLS-family operator
DDR cmd                 3       presence of {ACT, RD, PRE} for this vector
Daddr                   32      DRAM address (rank, BG, BA, row, col)
vsize                   4       vector size in 64 B bursts
weight (FP32)           32      per-lookup weight for weighted SLS
LocalityBit             1       cacheability hint from hot-entry profiling
PsumTag                 4       which pooling of the packet this belongs to
======================  ======  =========================================

One NMP-Inst encodes *all* the DDR commands needed to fetch one embedding
vector, which is how RecNMP compresses C/A bandwidth by up to 8x.

:class:`NMPInstruction` is that record (fields, range checks, 79-bit
``encode``/``decode``).  The simulator carries the instruction stream as
columns from the packet generator to the rank-NMPs (:class:`NMPPacket`,
:class:`PackedInstructions`); ``PackedInstructions.from_instructions``
turns records into columns.
"""

import enum
import struct
from dataclasses import dataclass, field

import numpy as np

# Bit masks of the DDR cmd field.
DDR_CMD_ACT = 0b100
DDR_CMD_RD = 0b010
DDR_CMD_PRE = 0b001

# Field widths (bits) of the 79-bit instruction.
_OPCODE_BITS = 3
_DDRCMD_BITS = 3
_DADDR_BITS = 32
_VSIZE_BITS = 4
_WEIGHT_BITS = 32
_LOCALITY_BITS = 1
_PSUMTAG_BITS = 4

TOTAL_INSTRUCTION_BITS = (_OPCODE_BITS + _DDRCMD_BITS + _DADDR_BITS
                          + _VSIZE_BITS + _WEIGHT_BITS + _LOCALITY_BITS
                          + _PSUMTAG_BITS)

#: Largest embedding vector the 4-bit vsize field encodes: 15 bursts.
MAX_VECTOR_BYTES = ((1 << _VSIZE_BITS) - 1) * 64


def check_vector_size_bytes(vector_size_bytes):
    """Raise unless a vector size fits the vsize field of an NMP-Inst.

    It must be a positive multiple of the 64 B burst and at most
    :data:`MAX_VECTOR_BYTES` (960 B).
    """
    if vector_size_bytes <= 0 or vector_size_bytes % 64:
        raise ValueError("vector_size_bytes must be a positive multiple of "
                         "64, got %r" % (vector_size_bytes,))
    if vector_size_bytes > MAX_VECTOR_BYTES:
        raise ValueError(
            "vector_size_bytes=%d exceeds the %d-byte limit of the 4-bit "
            "vsize field" % (vector_size_bytes, MAX_VECTOR_BYTES))


class NMPOpcode(enum.IntEnum):
    """SLS-family operator selectors (Fig. 8(d) op-code list)."""

    SUM = 0
    MEAN = 1
    WEIGHTED_SUM = 2
    WEIGHTED_MEAN = 3
    WEIGHTED_SUM_8BIT = 4
    WEIGHTED_MEAN_8BIT = 5


def _float_to_bits(value):
    """Pack a float into its IEEE-754 FP32 bit pattern."""
    return struct.unpack("<I", struct.pack("<f", float(value)))[0]


def _bits_to_float(bits):
    """Unpack an IEEE-754 FP32 bit pattern into a float."""
    return struct.unpack("<f", struct.pack("<I", bits & 0xFFFFFFFF))[0]


@dataclass
class NMPInstruction:
    """One NMP-Inst: fetch one embedding vector and accumulate it.

    Attributes
    ----------
    opcode:
        The SLS-family operation.
    ddr_cmd:
        Bitwise OR of ``DDR_CMD_ACT``, ``DDR_CMD_RD``, ``DDR_CMD_PRE``; which
        DDR commands the rank-NMP command decoder must emit for this vector.
    daddr:
        Compressed DRAM address (packed rank / bank group / bank / row /
        column); for simulation purposes this is the physical byte address
        truncated to 32 bits of 64 B blocks.
    vsize:
        Vector size in 64-byte bursts (1 => 64 B, 4 => 256 B).
    weight:
        FP32 weight for weighted operators (1.0 otherwise).
    locality_bit:
        Cacheability hint produced by hot-entry profiling.
    psum_tag:
        Identifies which pooling (partial sum) of the packet the vector
        belongs to (4 bits => at most 16 poolings per packet).
    table_id, pooling_index, row_index:
        Simulation-side metadata (not part of the hardware encoding).
    """

    opcode: NMPOpcode = NMPOpcode.SUM
    ddr_cmd: int = DDR_CMD_ACT | DDR_CMD_RD | DDR_CMD_PRE
    daddr: int = 0
    vsize: int = 1
    weight: float = 1.0
    locality_bit: bool = True
    psum_tag: int = 0
    table_id: int = field(default=0, compare=False)
    pooling_index: int = field(default=0, compare=False)
    row_index: int = field(default=0, compare=False)

    def __post_init__(self):
        if not 0 <= int(self.ddr_cmd) < (1 << _DDRCMD_BITS):
            raise ValueError("ddr_cmd must fit in %d bits" % _DDRCMD_BITS)
        if not 0 <= int(self.daddr) < (1 << _DADDR_BITS):
            raise ValueError("daddr must fit in %d bits" % _DADDR_BITS)
        if not 1 <= int(self.vsize) < (1 << _VSIZE_BITS):
            raise ValueError("vsize must be in [1, %d)" % (1 << _VSIZE_BITS))
        if not 0 <= int(self.psum_tag) < (1 << _PSUMTAG_BITS):
            raise ValueError("psum_tag must fit in %d bits" % _PSUMTAG_BITS)
        self.opcode = NMPOpcode(self.opcode)
        self.ddr_cmd = int(self.ddr_cmd)
        self.daddr = int(self.daddr)
        self.vsize = int(self.vsize)
        self.psum_tag = int(self.psum_tag)
        self.locality_bit = bool(self.locality_bit)

    # ------------------------------------------------------------------ #
    # Hardware bit-level encoding (79 bits packed into an int).
    # ------------------------------------------------------------------ #
    def encode(self):
        """Pack the instruction into its 79-bit integer representation."""
        value = int(self.opcode)
        value = (value << _DDRCMD_BITS) | self.ddr_cmd
        value = (value << _DADDR_BITS) | self.daddr
        value = (value << _VSIZE_BITS) | self.vsize
        value = (value << _WEIGHT_BITS) | _float_to_bits(self.weight)
        value = (value << _LOCALITY_BITS) | int(self.locality_bit)
        value = (value << _PSUMTAG_BITS) | self.psum_tag
        return value

    @classmethod
    def decode(cls, value):
        """Inverse of :meth:`encode` (metadata fields are not recovered)."""
        if value < 0 or value >= (1 << TOTAL_INSTRUCTION_BITS):
            raise ValueError("encoded instruction out of range")
        psum_tag = value & ((1 << _PSUMTAG_BITS) - 1)
        value >>= _PSUMTAG_BITS
        locality = bool(value & ((1 << _LOCALITY_BITS) - 1))
        value >>= _LOCALITY_BITS
        weight = _bits_to_float(value & ((1 << _WEIGHT_BITS) - 1))
        value >>= _WEIGHT_BITS
        vsize = value & ((1 << _VSIZE_BITS) - 1)
        value >>= _VSIZE_BITS
        daddr = value & ((1 << _DADDR_BITS) - 1)
        value >>= _DADDR_BITS
        ddr_cmd = value & ((1 << _DDRCMD_BITS) - 1)
        value >>= _DDRCMD_BITS
        opcode = NMPOpcode(value & ((1 << _OPCODE_BITS) - 1))
        return cls(opcode=opcode, ddr_cmd=ddr_cmd, daddr=daddr, vsize=vsize,
                   weight=weight, locality_bit=locality, psum_tag=psum_tag)

    @staticmethod
    def bit_width():
        """Total instruction width in bits (79 per the paper)."""
        return TOTAL_INSTRUCTION_BITS


class PackedInstructions:
    """Struct-of-arrays view of a sequence of NMP-Insts.

    Carries exactly the fields the timing model consumes -- ``daddrs``,
    ``vsizes``, ``psum_tags`` (int64), ``weighted`` (weight != 1.0) and
    ``localities`` (bool) -- as flat numpy arrays.  The rank-NMPs read
    all but ``psum_tags``, which counts the packet's poolings for the
    DIMM.Sum drain and the host's accumulation counters.
    """

    __slots__ = ("daddrs", "vsizes", "weighted", "localities", "psum_tags")

    def __init__(self, daddrs, vsizes, weighted, localities, psum_tags):
        self.daddrs = daddrs
        self.vsizes = vsizes
        self.weighted = weighted
        self.localities = localities
        self.psum_tags = psum_tags

    def __len__(self):
        return len(self.daddrs)

    @classmethod
    def from_instructions(cls, instructions):
        """The columns of a sequence of :class:`NMPInstruction` records."""
        count = len(instructions)
        return cls(
            np.fromiter((inst.daddr for inst in instructions),
                        np.int64, count),
            np.fromiter((inst.vsize for inst in instructions),
                        np.int64, count),
            np.fromiter((inst.weight != 1.0 for inst in instructions),
                        np.bool_, count),
            np.fromiter((inst.locality_bit for inst in instructions),
                        np.bool_, count),
            np.fromiter((inst.psum_tag for inst in instructions),
                        np.int64, count))

    def take(self, indices):
        """New PackedInstructions holding rows ``indices`` (in order)."""
        return PackedInstructions(
            self.daddrs[indices], self.vsizes[indices],
            self.weighted[indices], self.localities[indices],
            self.psum_tags[indices])


class NMPPacket:
    """A packet of NMP-Insts offloaded to one RecNMP processing unit.

    A packet carries one or more pooling operations (identified by PsumTag)
    of one SLS operator; the packet header configures the accumulation
    counters, the tail returns the final sums to the host.

    The packet holds its NMP-Insts as columns, one row per instruction
    in packet order.  ``instructions`` is the :class:`PackedInstructions`
    the timing model runs on; beside it sit ``ddr_cmds``,
    ``pooling_indices`` and ``row_indices`` (int64), ``weights`` (float,
    or None for all 1.0) and the ``opcode`` every row shares.  The packet
    generator builds every field in range (at most 16 PsumTags); packets
    are immutable after generation.
    """

    __slots__ = ("instructions", "opcode", "ddr_cmds", "weights",
                 "pooling_indices", "row_indices", "table_id", "model_id",
                 "batch_index", "packet_id")

    def __init__(self, instructions, opcode, ddr_cmds, weights,
                 pooling_indices, row_indices, table_id=0, model_id=0,
                 batch_index=0, packet_id=0):
        self.instructions = instructions
        self.opcode = opcode
        self.ddr_cmds = ddr_cmds
        self.weights = weights
        self.pooling_indices = pooling_indices
        self.row_indices = row_indices
        self.table_id = table_id
        self.model_id = model_id
        self.batch_index = batch_index
        self.packet_id = packet_id

    def __len__(self):
        return len(self.instructions)
