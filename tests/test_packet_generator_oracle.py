"""The column packet generator against the per-lookup reference.

:class:`ReferencePacketGenerator` below is the packet generator as it
was when it built one :class:`NMPInstruction` per lookup: a loop over the
request's poolings that calls ``address_of`` once per lookup, tags each
lookup's DDR commands from the previous lookup's row and looks its row up
in a :class:`collections.Counter` profile.  The columnar
:class:`PacketGenerator` must produce the same packets field for field,
including the simulation-side metadata (``table_id``, ``pooling_index``,
``row_index``) that instruction equality ignores, the same packet ids
and the same packed timing columns; the LocalityBits carry the
hot-entry profiles.

The last test checks that the cycle-simulated serving path builds no
instruction object at all.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hot_entry import ProfileResult
from repro.core.instruction import (
    DDR_CMD_ACT,
    DDR_CMD_PRE,
    DDR_CMD_RD,
    NMPInstruction,
    NMPOpcode,
    PackedInstructions,
)
from repro.core.packet_generator import PacketGenerator, PacketGeneratorConfig
from repro.serving import (
    BatchingFrontend,
    PoissonArrivalProcess,
    QueryStream,
    ShardedServingCluster,
)
from repro.systems.base import TableLayout
from repro.traces import make_production_table_traces

from nmp_packets import instructions_of, packet_of
from sls_strategies import array_address_of, scalar_address_of, sls_requests


class ReferencePacketGenerator:
    """The per-lookup packet generator, kept as the specification."""

    def __init__(self, config, address_of):
        self.config = config
        self.address_of = address_of
        self.packet_counter = 0

    def profile(self, indices, table_id):
        counts = Counter(int(i) for i in np.asarray(indices, np.int64))
        threshold = self.config.hot_entry_threshold
        return ProfileResult(
            table_id=table_id, threshold=threshold,
            hot_rows={row for row, count in counts.items()
                      if count >= threshold},
            access_counts=dict(counts))

    def ddr_cmd_tags(self, physical_addresses):
        row_bytes = self.config.row_buffer_bytes
        tags = []
        previous_row = None
        for address in physical_addresses:
            row = address // row_bytes
            if previous_row is not None and row == previous_row:
                tags.append(DDR_CMD_RD)
            else:
                tags.append(DDR_CMD_ACT | DDR_CMD_RD | DDR_CMD_PRE)
            previous_row = row
        return tags

    def request_packets(self, request, model_id, batch_index, profile):
        config = self.config
        packets = []
        offsets = np.cumsum(request.lengths) - request.lengths
        pooling_groups = [
            (pooling_index, request.indices[start:start + length],
             None if request.weights is None
             else request.weights[start:start + length])
            for pooling_index, (start, length) in enumerate(
                zip(offsets.tolist(), request.lengths.tolist()))]
        for start in range(0, len(pooling_groups),
                           config.poolings_per_packet):
            group = pooling_groups[start:start + config.poolings_per_packet]
            flat = []
            for tag_slot, (pooling_index, indices, weights) in \
                    enumerate(group):
                for position, row in enumerate(indices):
                    weight = (float(weights[position])
                              if weights is not None else 1.0)
                    flat.append((tag_slot, pooling_index, int(row), weight))
            addresses = [self.address_of(request.table_id, row)
                         for _, _, row, _ in flat]
            instructions = []
            for (tag_slot, pooling_index, row, weight), address, ddr_cmd in \
                    zip(flat, addresses, self.ddr_cmd_tags(addresses)):
                locality = (bool(profile.is_hot(row))
                            if config.enable_hot_entry_profiling else True)
                instructions.append(NMPInstruction(
                    opcode=NMPOpcode(config.opcode), ddr_cmd=ddr_cmd,
                    daddr=(address // 64) & 0xFFFFFFFF, vsize=config.vsize,
                    weight=weight, locality_bit=locality, psum_tag=tag_slot,
                    table_id=request.table_id, pooling_index=pooling_index,
                    row_index=row))
            packets.append(packet_of(instructions,
                                     table_id=request.table_id,
                                     model_id=model_id,
                                     batch_index=batch_index,
                                     packet_id=self.packet_counter))
            self.packet_counter += 1
        return packets

    def packets_for_requests(self, requests, model_id=0):
        profiles = None
        if self.config.enable_hot_entry_profiling:
            per_table = {}
            for request in requests:
                per_table.setdefault(request.table_id, []).append(
                    request.indices)
            profiles = {table_id: self.profile(np.concatenate(parts),
                                               table_id)
                        for table_id, parts in per_table.items()}
        packets = []
        for batch_index, request in enumerate(requests):
            packets.extend(self.request_packets(
                request, model_id, batch_index,
                profiles[request.table_id] if profiles else None))
        return packets


def _instruction_fields(instruction):
    """Every field of an instruction, metadata included."""
    return (instruction.opcode, instruction.ddr_cmd, instruction.daddr,
            instruction.vsize, instruction.weight, instruction.locality_bit,
            instruction.psum_tag, instruction.table_id,
            instruction.pooling_index, instruction.row_index)


def _packet_record(packet):
    packed = packet.instructions
    return {
        "header": (packet.packet_id, packet.table_id, packet.model_id,
                   packet.batch_index, len(packet)),
        "instructions": [_instruction_fields(inst)
                         for inst in instructions_of(packet)],
        "packed": [getattr(packed, name).tolist()
                   for name in PackedInstructions.__slots__],
        "packed_dtypes": [getattr(packed, name).dtype.str
                          for name in PackedInstructions.__slots__],
    }


@settings(max_examples=150, deadline=None)
@given(requests=sls_requests(),
       poolings_per_packet=st.integers(1, 16),
       threshold=st.integers(1, 4),
       profiling=st.booleans(),
       vector_bytes=st.sampled_from([64, 128, 256]),
       row_buffer_bytes=st.sampled_from([256, 8192]),
       scalar_only=st.booleans(),
       opcode=st.sampled_from(list(NMPOpcode)))
def test_columns_match_the_per_lookup_reference(
        requests, poolings_per_packet, threshold, profiling, vector_bytes,
        row_buffer_bytes, scalar_only, opcode):
    config = PacketGeneratorConfig(
        poolings_per_packet=poolings_per_packet,
        vector_size_bytes=vector_bytes, row_buffer_bytes=row_buffer_bytes,
        enable_hot_entry_profiling=profiling, hot_entry_threshold=threshold,
        opcode=opcode)
    make_address_of = scalar_address_of if scalar_only \
        else array_address_of
    generator = PacketGenerator(config, make_address_of(vector_bytes))
    reference = ReferencePacketGenerator(config,
                                         make_address_of(vector_bytes))
    # Two batches through one generator: packet ids carry over and the
    # address-map probe result is reused.
    for batch in (requests, requests[::-1]):
        packets = generator.packets_for_requests(batch, model_id=1)
        expected = reference.packets_for_requests(batch, model_id=1)
        assert [_packet_record(packet) for packet in packets] == \
            [_packet_record(packet) for packet in expected]


def test_scalar_only_address_map_rejects_arrays():
    """The oracle's scalar-only map really does raise on index arrays,
    and it places its tables page-aligned."""
    address_of = scalar_address_of(64)
    assert address_of(1, 3) == address_of(1, 0) + 3 * 64
    assert [address_of(table, 0) % 4096 for table in range(3)] == [0] * 3
    assert address_of(1, 0) >= address_of(0, 63) + 64
    with pytest.raises(ValueError):
        address_of(1, np.arange(4))


def test_serving_path_builds_no_instruction_objects(monkeypatch):
    """A serve-exact-cold-shaped run (two 4-channel recnmp-opt nodes,
    8 tables, 8 x 10 lookups per table per query, every batch
    cycle-simulated) never constructs an NMPInstruction."""

    def refuse(*args, **kwargs):
        raise AssertionError("an NMPInstruction was built")

    monkeypatch.setattr(NMPInstruction, "__init__", refuse)
    vector_bytes = 128
    traces = make_production_table_traces(
        num_lookups_per_table=16 * 8 * 10, num_rows=20_000, num_tables=8,
        seed=0)
    layout = TableLayout(num_rows=20_000, vector_bytes=vector_bytes)
    with ShardedServingCluster(num_nodes=2, node_system="recnmp-opt-4ch",
                               num_frontends=1,
                               address_of=layout.address_of,
                               vector_size_bytes=vector_bytes) as cluster:
        stream = QueryStream(traces, PoissonArrivalProcess(2.25e6, seed=0),
                             num_queries=16, batch_size=8, pooling_factor=10)
        report = cluster.simulate(
            stream, frontend=BatchingFrontend(max_queries=8,
                                              max_delay_us=200.0),
            engine="event", service_model="exact")
    assert report.num_queries == 16 and report.num_batches >= 2
    assert cluster.service_stats()["exact_simulations"] \
        == report.num_batches
