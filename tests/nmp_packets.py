"""Test helpers between NMP-Inst records and the simulator's columns.

The simulator carries a packet's instruction stream as columns from the
packet generator to the rank-NMPs.  Tests that state their inputs as
:class:`~repro.core.instruction.NMPInstruction` records, or read a
generated packet back as records, go through these helpers:

- :func:`packet_of` builds a column :class:`NMPPacket` from records;
- :func:`instructions_of` reads a packet's rows back as records, through
  the record's constructor, so every range check applies;
- :func:`run_instructions` / :func:`run_instruction` drive the one
  rank-NMP of a one-rank :class:`~repro.core.processing_unit
  .RecNMPChannel` with records, at arrival cycles of the test's choice.
"""

import numpy as np

from repro.core.instruction import (
    NMPInstruction,
    NMPOpcode,
    NMPPacket,
    PackedInstructions,
)
from repro.core.processing_unit import RecNMPChannel
from repro.core.rank_nmp import execute_segments


def packet_of(instructions, table_id=0, model_id=0, batch_index=0,
              packet_id=0):
    """A column packet holding ``instructions`` in order.

    Every instruction must carry the same opcode (a packet runs one SLS
    operator); ``weights`` is None when every weight is 1.0, as the
    packet generator leaves it for unweighted requests.
    """
    instructions = list(instructions)
    opcodes = {inst.opcode for inst in instructions}
    if len(opcodes) > 1:
        raise ValueError("a packet carries one opcode, got %r"
                         % sorted(opcodes))
    weights = np.array([inst.weight for inst in instructions])
    return NMPPacket(
        PackedInstructions.from_instructions(instructions),
        opcodes.pop() if opcodes else NMPOpcode.SUM,
        np.array([inst.ddr_cmd for inst in instructions], np.int64),
        None if (weights == 1.0).all() else weights,
        np.array([inst.pooling_index for inst in instructions], np.int64),
        np.array([inst.row_index for inst in instructions], np.int64),
        table_id=table_id, model_id=model_id, batch_index=batch_index,
        packet_id=packet_id)


def instructions_of(packet):
    """The packet's rows as :class:`NMPInstruction` records, in order."""
    packed = packet.instructions
    count = len(packed)
    weights = [1.0] * count if packet.weights is None \
        else packet.weights.tolist()
    return [NMPInstruction(
        opcode=packet.opcode, ddr_cmd=ddr_cmd, daddr=daddr, vsize=vsize,
        weight=weight, locality_bit=locality, psum_tag=psum_tag,
        table_id=packet.table_id, pooling_index=pooling_index,
        row_index=row_index)
        for ddr_cmd, daddr, vsize, weight, locality, psum_tag,
        pooling_index, row_index in zip(
            packet.ddr_cmds.tolist(), packed.daddrs.tolist(),
            packed.vsizes.tolist(), weights, packed.localities.tolist(),
            packed.psum_tags.tolist(), packet.pooling_indices.tolist(),
            packet.row_indices.tolist())]


def single_rank(config=None):
    """A one-DIMM, one-rank channel: rank 0 is the rank-NMP the
    ``run_*`` helpers drive."""
    return RecNMPChannel(num_dimms=1, ranks_per_dimm=1, rank_config=config)


def run_instructions(channel, instructions, arrival_cycles=None,
                     reorder_window=16):
    """Execute records on rank 0 of ``channel``, a :func:`single_rank`;
    returns the last completion (the rank's current cycle when there are
    none).

    The columns are the channel's own (``RecNMPChannel._prepare``, the
    dispatch path); only the arrival offsets are swapped for
    ``arrival_cycles`` (default: all 0), which must never decrease, as
    the C/A interface delivers them.
    """
    state = channel._state
    if arrival_cycles is None:
        arrival_cycles = [0] * len(instructions)
    arrivals = [int(cycle) for cycle in arrival_cycles]
    assert len(arrivals) == len(instructions)
    assert all(a <= b for a, b in zip(arrivals, arrivals[1:])), arrivals
    if not instructions:
        return int(state.current[0])
    packed = PackedInstructions.from_instructions(instructions)
    columns, segments, _ = channel._prepare(
        [packed], np.zeros(len(packed), np.int64))
    columns[4] = np.array(arrivals, np.int64) if state.takes_arrays \
        else arrivals
    return execute_segments(state, columns, segments[0], 0, reorder_window)


def run_instruction(channel, instruction, arrival_cycle=0):
    """Execute one record on rank 0 of ``channel``; returns its
    completion."""
    return run_instructions(channel, [instruction], [arrival_cycle],
                            reorder_window=1)
