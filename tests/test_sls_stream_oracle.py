"""The NMP instruction stream computes SLS: a functional oracle.

RecNMP offloads each SLS operator as NMP packets; the rank-NMPs
accumulate every instruction's embedding vector into the PsumTag
register of its packet, and each register holds one pooling's result
(Fig. 8, Fig. 10).  :func:`execute_stream` runs the generated packet
columns that way in numpy, and every pooling is compared with the
``repro.dlrm.operators`` reference.  It shares no code with the packet
generator:

- each Daddr (the byte address >> 6, kept to 32 bits) is mapped back to
  ``(table, row)`` through a dict built from the test's own address
  map; ``packet.row_indices`` is never read;
- pooling ``p`` of a request belongs to the request's packet
  ``p // poolings_per_packet`` under PsumTag ``p % poolings_per_packet``,
  derived from the request lengths alone, and every instruction's tag is
  checked against that; ``packet.pooling_indices`` is never read;
- weight x row accumulates per (packet, PsumTag) in float32, the weight
  taken from ``packet.weights`` (1.0 when it is None); MEAN opcodes
  divide by the tag's instruction count.

Tables hold integers (8-bit tables: a power-of-two scale and an integer
bias per row, so the row-wise quantisation is exact) and weights are
dyadic, so every sum is exact in float32 whatever the order and the
comparison is equality.  One float-weight case is checked with a
tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instruction import NMPOpcode, NMPPacket, PackedInstructions
from repro.core.packet_generator import PacketGenerator, PacketGeneratorConfig
from repro.dlrm.operators import (
    SLSRequest,
    quantize_rowwise_8bit,
    sparse_lengths_mean,
    sparse_lengths_sum,
    sparse_lengths_sum_8bit,
    sparse_lengths_weighted_sum,
)

from sls_strategies import (
    DYADIC_WEIGHTS,
    NUM_ROWS,
    NUM_TABLES,
    array_address_of,
    scalar_address_of,
    sls_requests,
)

WEIGHTED = {NMPOpcode.WEIGHTED_SUM, NMPOpcode.WEIGHTED_MEAN,
            NMPOpcode.WEIGHTED_SUM_8BIT, NMPOpcode.WEIGHTED_MEAN_8BIT}
MEAN = {NMPOpcode.MEAN, NMPOpcode.WEIGHTED_MEAN,
        NMPOpcode.WEIGHTED_MEAN_8BIT}
QUANTIZED = {NMPOpcode.WEIGHTED_SUM_8BIT, NMPOpcode.WEIGHTED_MEAN_8BIT}


def daddr_map(address_of):
    """``{Daddr: (table, row)}`` over every row of every table."""
    rows_of = {}
    for table in range(NUM_TABLES):
        for row in range(NUM_ROWS):
            daddr = (address_of(table, row) >> 6) & 0xFFFFFFFF
            assert daddr not in rows_of, "address map is not one-to-one"
            rows_of[daddr] = (table, row)
    return rows_of


def execute_stream(packets, requests, per_packet, rows_of, vector, mean):
    """Pooled vectors of every request, computed from the packet stream.

    ``vector(table, row)`` is the float32 row a rank-NMP reads for an
    instruction.  Returns one ``(poolings, dim)`` array per request.
    """
    packets = iter(packets)
    outputs = []
    for request in requests:
        lengths = request.lengths.tolist()
        sums, counts = {}, {}
        for slot in range(-(-len(lengths) // per_packet)):
            packet = next(packets, None)
            assert packet is not None, "packet missing"
            group = range(slot * per_packet,
                          min((slot + 1) * per_packet, len(lengths)))
            tags = packet.instructions.psum_tags.tolist()
            assert tags == [pooling % per_packet for pooling in group
                            for _ in range(lengths[pooling])]
            weights = [1.0] * len(tags) if packet.weights is None \
                else packet.weights.tolist()
            for daddr, tag, weight in zip(
                    packet.instructions.daddrs.tolist(), tags, weights):
                table, row = rows_of[daddr]
                key = (slot, tag)
                if key not in sums:
                    sums[key] = np.zeros_like(vector(table, row))
                    counts[key] = 0
                sums[key] += np.float32(weight) * vector(table, row)
                counts[key] += 1
        pooled = []
        for pooling in range(len(lengths)):
            key = (pooling // per_packet, pooling % per_packet)
            pooled.append(sums[key] / np.float32(counts[key]) if mean
                          else sums[key])
        outputs.append(np.stack(pooled))
    assert next(packets, None) is None, "packets left over"
    return outputs


def reference(opcode, table, request):
    """The ``repro.dlrm.operators`` answer for one request."""
    indices, lengths = request.indices, request.lengths
    weights = request.weights
    if opcode in WEIGHTED and weights is None:
        weights = np.ones(len(indices), dtype=np.float32)
    if opcode in QUANTIZED:
        pooled = sparse_lengths_sum_8bit(*quantize_rowwise_8bit(table),
                                         indices, lengths, weights)
    elif opcode == NMPOpcode.MEAN:
        return sparse_lengths_mean(table, indices, lengths)
    elif opcode in WEIGHTED:
        pooled = sparse_lengths_weighted_sum(table, indices, lengths,
                                             weights)
    else:
        return sparse_lengths_sum(table, indices, lengths)
    if opcode in MEAN:
        pooled = pooled / np.asarray(lengths, dtype=np.float32)[:, None]
    return pooled


def row_reader(opcode, tables):
    """``vector(table, row)``: the row the datapath accumulates.

    8-bit tables are dequantised row by row, ``q * scale + bias``.
    """
    if opcode not in QUANTIZED:
        return lambda table, row: tables[table][row]
    quantized = [quantize_rowwise_8bit(table) for table in tables]

    def vector(table, row):
        rows, scale, bias = quantized[table]
        return rows[row].astype(np.float32) * scale[row] + bias[row]

    return vector


def integer_tables(seed, dim, quantizable):
    """Integer-valued float32 tables, one per table id.

    A quantizable row is ``bias + 2**k * q`` with ``q`` in [0, 255]
    spanning the whole range, so its row-wise 8-bit quantisation has
    scale ``2**k`` and bias ``bias`` and dequantises exactly.
    """
    rng = np.random.default_rng(seed)
    shape = (NUM_TABLES, NUM_ROWS, dim)
    if not quantizable:
        return rng.integers(-16, 17, size=shape).astype(np.float32)
    levels = rng.integers(0, 256, size=shape)
    levels[:, :, 0], levels[:, :, 1] = 0, 255
    scale = 2.0 ** rng.integers(-2, 3, size=shape[:2] + (1,))
    bias = rng.integers(-8, 9, size=shape[:2] + (1,))
    return (bias + scale * levels).astype(np.float32)


def run_case(opcode, requests, tables, poolings_per_packet, vector_bytes,
             profiling, threshold, make_address_of, corrupt=None):
    """Generate the packets; returns the stream's and the reference's
    pooled outputs, one array per request.

    ``corrupt(packets)``, when given, rewrites the generated stream
    before the oracle executes it.
    """
    config = PacketGeneratorConfig(
        poolings_per_packet=poolings_per_packet,
        vector_size_bytes=vector_bytes, enable_hot_entry_profiling=profiling,
        hot_entry_threshold=threshold, opcode=opcode)
    generator = PacketGenerator(config, make_address_of(vector_bytes))
    packets = generator.packets_for_requests(requests)
    assert all(packet.opcode == opcode for packet in packets)
    if corrupt is not None:
        packets = corrupt(packets)
    outputs = execute_stream(
        packets, requests, poolings_per_packet,
        daddr_map(make_address_of(vector_bytes)),
        row_reader(opcode, tables), opcode in MEAN)
    return outputs, [reference(opcode, tables[request.table_id], request)
                     for request in requests]


def assert_outputs_equal(outputs, expected):
    for output, answer in zip(outputs, expected, strict=True):
        assert output.dtype == answer.dtype == np.float32
        np.testing.assert_array_equal(output, answer)


@pytest.mark.parametrize("opcode", list(NMPOpcode),
                         ids=lambda opcode: opcode.name)
@settings(max_examples=50, deadline=None)
@given(data=st.data(),
       poolings_per_packet=st.integers(1, 16),
       vector_bytes=st.sampled_from([64, 128, 256]),
       profiling=st.booleans(),
       threshold=st.integers(1, 4),
       scalar_only=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_packets_compute_sls(opcode, data, poolings_per_packet,
                             vector_bytes, profiling, threshold,
                             scalar_only, seed):
    # Only the weighted opcodes take per-lookup weights.
    requests = data.draw(sls_requests(
        DYADIC_WEIGHTS if opcode in WEIGHTED else None), label="requests")
    tables = integer_tables(seed, vector_bytes // 4, opcode in QUANTIZED)
    outputs, expected = run_case(
        opcode, requests, tables, poolings_per_packet, vector_bytes,
        profiling, threshold,
        scalar_address_of if scalar_only else array_address_of)
    assert_outputs_equal(outputs, expected)


@pytest.mark.parametrize("opcode", sorted(WEIGHTED),
                         ids=lambda opcode: opcode.name)
def test_float_weights_match_within_rounding(opcode):
    """Arbitrary FP32 weights and rows: the stream's sums differ from
    the reference's only in summation order."""
    rng = np.random.default_rng(7)
    tables = rng.standard_normal((NUM_TABLES, NUM_ROWS, 32)).astype(
        np.float32)
    requests = []
    for table in range(NUM_TABLES):
        lengths = rng.integers(1, 13, size=11)
        total = int(lengths.sum())
        requests.append(SLSRequest(
            table_id=table, indices=rng.integers(0, NUM_ROWS, size=total),
            lengths=lengths, weights=rng.uniform(0.0, 4.0, size=total)))
    outputs, expected = run_case(opcode, requests, tables, 4, 128, True, 2,
                                 array_address_of)
    for output, answer in zip(outputs, expected, strict=True):
        np.testing.assert_allclose(output, answer, rtol=1e-5, atol=1e-5)


def test_repeated_request_shape_reuses_columns():
    """The generator keeps the last request shape's columns and cuts
    every later request of that shape from them; the streams of two
    batches of same-shaped requests still compute their own SLS."""
    tables = integer_tables(3, 32, quantizable=False)
    config = PacketGeneratorConfig(poolings_per_packet=3,
                                   vector_size_bytes=128,
                                   opcode=NMPOpcode.WEIGHTED_SUM)
    generator = PacketGenerator(config, array_address_of(128))
    rng = np.random.default_rng(11)
    lengths = np.array([2, 5, 1, 3, 4, 2, 6])
    for _ in range(2):
        requests = [SLSRequest(
            table_id=table,
            indices=rng.integers(0, NUM_ROWS, size=int(lengths.sum())),
            lengths=lengths,
            weights=rng.integers(0, 33, size=int(lengths.sum())) / 8)
            for table in range(NUM_TABLES)]
        outputs = execute_stream(
            generator.packets_for_requests(requests), requests, 3,
            daddr_map(array_address_of(128)),
            row_reader(NMPOpcode.WEIGHTED_SUM, tables), mean=False)
        assert_outputs_equal(outputs, [
            reference(NMPOpcode.WEIGHTED_SUM, tables[request.table_id],
                      request) for request in requests])


# --------------------------------------------------------------------- #
# The oracle is not vacuous: a corrupted stream fails it.

PACKET_COLUMNS = ("ddr_cmds", "weights", "pooling_indices", "row_indices")


def columns_of(packet):
    """Every per-instruction column of ``packet``, by name."""
    columns = {name: getattr(packet.instructions, name)
               for name in PackedInstructions.__slots__}
    columns.update((name, getattr(packet, name)) for name in PACKET_COLUMNS)
    return columns


def rebuilt(packet, **columns):
    """A copy of ``packet`` with the named columns replaced."""
    fields = dict(columns_of(packet), **columns)
    return NMPPacket(
        PackedInstructions(*(fields[name]
                             for name in PackedInstructions.__slots__)),
        packet.opcode, *(fields[name] for name in PACKET_COLUMNS),
        table_id=packet.table_id, model_id=packet.model_id,
        batch_index=packet.batch_index, packet_id=packet.packet_id)


def tags_without_modulo(packets):
    # Every packet after a request's first keeps counting PsumTags.
    return [rebuilt(packet, psum_tags=packet.pooling_indices)
            for packet in packets]


def weights_dropped(packets):
    return [rebuilt(packet, weights=None) for packet in packets]


def daddr_one_row_on(packets):
    return [rebuilt(packet, daddrs=packet.instructions.daddrs
                    + packet.instructions.vsizes) for packet in packets]


def cut_one_lookup_late(packets):
    # Every packet of a request takes the next packet's first lookup.
    out = list(packets)
    for i in range(len(out) - 1):
        if out[i].batch_index != out[i + 1].batch_index:
            continue
        head, tail = columns_of(out[i]), columns_of(out[i + 1])
        out[i] = rebuilt(out[i], **{
            name: None if column is None
            else np.concatenate([column, tail[name][:1]])
            for name, column in head.items()})
        out[i + 1] = rebuilt(out[i + 1], **{
            name: None if column is None else column[1:]
            for name, column in tail.items()})
    return out


def last_packet_missing(packets):
    return packets[:-1]


def last_packet_repeated(packets):
    return packets + packets[-1:]


def requests_swapped(packets):
    # The packets of the first two requests trade places.
    first = [p for p in packets if p.batch_index == 0]
    second = [p for p in packets if p.batch_index == 1]
    rest = [p for p in packets if p.batch_index > 1]
    return second + first + rest


def corrupt_case_requests():
    """Three weighted requests, none a whole number of packets, over
    rows below the last so a Daddr one row on stays in the map."""
    rng = np.random.default_rng(5)
    requests = []
    for table, num_poolings in zip(range(NUM_TABLES), (7, 10, 5)):
        lengths = rng.integers(1, 7, size=num_poolings)
        total = int(lengths.sum())
        requests.append(SLSRequest(
            table_id=table, indices=rng.integers(0, NUM_ROWS - 1, size=total),
            lengths=lengths, weights=rng.integers(0, 33, size=total) / 8))
    return requests


@pytest.mark.parametrize("corrupt", [
    tags_without_modulo, weights_dropped, daddr_one_row_on,
    cut_one_lookup_late, last_packet_missing, last_packet_repeated,
    requests_swapped], ids=lambda corrupt: corrupt.__name__)
def test_corrupted_stream_fails_the_oracle(corrupt):
    requests = corrupt_case_requests()
    tables = integer_tables(9, 32, quantizable=False)
    outputs, expected = run_case(NMPOpcode.WEIGHTED_SUM, requests, tables,
                                 4, 128, True, 2, array_address_of)
    assert_outputs_equal(outputs, expected)
    with pytest.raises(AssertionError):
        outputs, expected = run_case(
            NMPOpcode.WEIGHTED_SUM, requests, tables, 4, 128, True, 2,
            array_address_of, corrupt=corrupt)
        assert_outputs_equal(outputs, expected)


def test_oracle_ignores_the_generators_bookkeeping():
    """The oracle never reads ``row_indices`` or ``pooling_indices``:
    with both zeroed the stream still computes SLS."""
    def bookkeeping_zeroed(packets):
        return [rebuilt(packet,
                        row_indices=np.zeros_like(packet.row_indices),
                        pooling_indices=np.zeros_like(
                            packet.pooling_indices))
                for packet in packets]

    requests = corrupt_case_requests()
    tables = integer_tables(9, 32, quantizable=False)
    assert_outputs_equal(*run_case(
        NMPOpcode.WEIGHTED_SUM, requests, tables, 4, 128, True, 2,
        array_address_of, corrupt=bookkeeping_zeroed))
