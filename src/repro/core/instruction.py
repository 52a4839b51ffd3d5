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
"""

import enum
import struct
from collections.abc import Sequence
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

    @classmethod
    def trusted(cls, opcode, ddr_cmd, daddr, vsize, weight, locality_bit,
                psum_tag, table_id=0, pooling_index=0, row_index=0):
        """Fast-path constructor for already-validated field values.

        Skips ``__init__``/``__post_init__`` (range checks and enum/int
        coercion): callers such as the packet generator produce fields
        that are valid by construction -- ``opcode`` must already be an
        :class:`NMPOpcode` and the int/bool fields plain Python values.
        Equality, hashing and every method behave identically to a
        normally-constructed instruction.
        """
        inst = object.__new__(cls)
        inst.opcode = opcode
        inst.ddr_cmd = ddr_cmd
        inst.daddr = daddr
        inst.vsize = vsize
        inst.weight = weight
        inst.locality_bit = locality_bit
        inst.psum_tag = psum_tag
        inst.table_id = table_id
        inst.pooling_index = pooling_index
        inst.row_index = row_index
        return inst

    # ------------------------------------------------------------------ #
    @property
    def needs_activate(self):
        return bool(self.ddr_cmd & DDR_CMD_ACT)

    @property
    def needs_read(self):
        return bool(self.ddr_cmd & DDR_CMD_RD)

    @property
    def needs_precharge(self):
        return bool(self.ddr_cmd & DDR_CMD_PRE)

    @property
    def vector_bytes(self):
        """Size of the embedding vector this instruction fetches."""
        return self.vsize * 64

    def ddr_command_count(self):
        """Number of DDR commands the rank command decoder will emit.

        A vector of ``vsize`` bursts needs ``vsize`` RD commands (consecutive
        columns) plus the optional ACT and PRE.
        """
        count = 0
        if self.needs_precharge:
            count += 1
        if self.needs_activate:
            count += 1
        if self.needs_read:
            count += self.vsize
        return count

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
    ``localities`` (bool) -- as flat numpy arrays, so the dispatch path
    can run without touching instruction objects (see
    :mod:`repro.core.kernels`).
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

    @property
    def num_poolings(self):
        """Number of distinct PsumTags (poolings)."""
        return int(np.count_nonzero(np.bincount(self.psum_tags)))


class NMPPacket:
    """A packet of NMP-Insts offloaded to one RecNMP processing unit.

    A packet carries one or more pooling operations (identified by PsumTag)
    of one SLS operator; the packet header configures the accumulation
    counters, the tail returns the final sums to the host.

    A packet holds its instructions in one of two forms.  Built from a list
    of :class:`NMPInstruction` (``NMPPacket(instructions=[...])``) it keeps
    that list.  Built by the packet generator (:meth:`from_columns`) it
    holds only columns: the :class:`PackedInstructions` the timing model
    runs on plus the remaining ISA fields, and :attr:`instructions` builds
    instruction objects only when they are read.  Packets are treated as
    immutable after generation everywhere in the pipeline.
    """

    __slots__ = ("table_id", "model_id", "batch_index", "packet_id",
                 "_instructions", "_packed", "_isa")

    def __init__(self, instructions=None, table_id=0, model_id=0,
                 batch_index=0, packet_id=0):
        instructions = [] if instructions is None else instructions
        if len({inst.psum_tag for inst in instructions}) > 16:
            raise ValueError(
                "a packet can carry at most 16 poolings (4-bit PsumTag)")
        self._instructions = instructions
        self._packed = self._isa = None
        self.table_id = table_id
        self.model_id = model_id
        self.batch_index = batch_index
        self.packet_id = packet_id

    @classmethod
    def from_columns(cls, packed, opcode, ddr_cmds, weights,
                     pooling_indices, row_indices, table_id=0, model_id=0,
                     batch_index=0, packet_id=0):
        """A packet holding columns only (no instruction objects).

        ``packed`` is the :class:`PackedInstructions` of the packet;
        ``ddr_cmds``, ``pooling_indices`` and ``row_indices`` are aligned
        int64 arrays, ``weights`` an aligned float array (or None for all
        1.0) and ``opcode`` the :class:`NMPOpcode` shared by every
        instruction, whose ``table_id`` is the packet's.  The caller
        guarantees every field is in range (at most 16 PsumTags).
        """
        packet = cls(table_id=table_id, model_id=model_id,
                     batch_index=batch_index, packet_id=packet_id)
        packet._instructions = None
        packet._packed = packed
        packet._isa = (opcode, ddr_cmds, weights, pooling_indices,
                       row_indices)
        return packet

    @property
    def instructions(self):
        """The packet's NMP-Insts, in packet order.

        For a column packet this is a read-only :class:`InstructionColumns`
        sequence: ``len()`` reads the column length, and instruction
        objects are built only when items are read.
        """
        if self._instructions is not None:
            return self._instructions
        return InstructionColumns(self)

    def __len__(self):
        if self._instructions is not None:
            return len(self._instructions)
        return len(self._packed)

    def __repr__(self):
        return ("NMPPacket(packet_id=%d, table_id=%d, model_id=%d, "
                "batch_index=%d, instructions=%d)"
                % (self.packet_id, self.table_id, self.model_id,
                   self.batch_index, len(self)))

    def packed_arrays(self):
        """The :class:`PackedInstructions` of this packet.

        A column packet returns its own columns.  A packet built from
        instruction objects packs them on first use and caches the result,
        keyed on instruction count: replacing the list with one of equal
        length requires dropping ``_packed`` manually.
        """
        if self._instructions is None:
            return self._packed
        packed = self._packed
        if packed is None or len(packed) != len(self._instructions):
            packed = PackedInstructions.from_instructions(self._instructions)
            self._packed = packed
        return packed

    @property
    def num_poolings(self):
        """Number of distinct poolings (PsumTags) in the packet."""
        return self.packed_arrays().num_poolings

    @property
    def total_vector_bytes(self):
        """Bytes of embedding data the packet gathers from memory."""
        return int(self.packed_arrays().vsizes.sum()) * 64

    def instructions_by_psum(self):
        """Group instructions by PsumTag; returns ``{tag: [insts]}``."""
        groups = {}
        for inst in self.instructions:
            groups.setdefault(inst.psum_tag, []).append(inst)
        return groups

    def locality_fraction(self):
        """Fraction of instructions carrying a set LocalityBit."""
        if not len(self):
            return 0.0
        return int(self.packed_arrays().localities.sum()) / len(self)


class InstructionColumns(Sequence):
    """Read-only sequence of a column packet's NMP-Insts.

    ``len()`` reads the column length; reading items builds fresh
    :class:`NMPInstruction` objects from the columns, all of them in one
    pass (read ``list(...)`` once for repeated access).  Compares equal
    to any sequence holding equal instructions in the same order.
    """

    __slots__ = ("_packet",)

    def __init__(self, packet):
        self._packet = packet

    def __len__(self):
        return len(self._packet._packed)

    def __iter__(self):
        packet = self._packet
        packed = packet._packed
        opcode, ddr_cmds, weights, pooling_indices, row_indices = packet._isa
        weights = [1.0] * len(packed) if weights is None \
            else weights.tolist()
        trusted = NMPInstruction.trusted
        table_id = packet.table_id
        return iter([trusted(opcode, ddr_cmd, daddr, vsize, weight, locality,
                             psum_tag, table_id, pooling_index, row_index)
                     for ddr_cmd, daddr, vsize, weight, locality, psum_tag,
                     pooling_index, row_index in zip(
                         ddr_cmds.tolist(), packed.daddrs.tolist(),
                         packed.vsizes.tolist(), weights,
                         packed.localities.tolist(),
                         packed.psum_tags.tolist(),
                         pooling_indices.tolist(), row_indices.tolist())])

    def __getitem__(self, index):
        return list(self)[index]

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self):
        return repr(list(self))
