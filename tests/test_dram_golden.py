"""Golden DDR4 baseline results: the FR-FCFS controller, pinned.

``golden/dram_baseline.json`` holds, for every case of the matrix below,
what ``DramSystem.run_trace`` produced when the controller still stepped
one memory cycle at a time: ``DramSystemResult.as_dict()``, every
``ControllerStats`` field of every channel (including the per-request
latency list) and every burst's completion cycle, channel by channel in
submission order -- read from each controller's ``completion_cycles``,
the drain's own per-burst output.  The drain must reproduce each case
byte for byte.

Matrix: four traces (Fig. 16's production shape, random addresses in
1 GiB, sequential row hits, same-bank row conflicts) x 1 or 4 channels x
unbounded / 4 / 32 outstanding requests per channel x 64 or 256-byte
requests x a 2 or 32-entry read queue.
"""

import dataclasses
import json
import random
from pathlib import Path

import pytest

from ddr4_reference import skylake_decode
from repro.dram.system import DramSystem, DramSystemConfig
from repro.traces import make_production_table_traces

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" \
    / "dram_baseline.json"

#: Fig. 16's layout: 128-byte vectors in 20,000-row tables, 8 x 40
#: lookups on each of two tables, on a 4-DIMM x 2-rank channel.
FIG16_ROWS = 20_000
FIG16_VECTOR_BYTES = 128


def _fig16_trace(geometry):
    del geometry
    traces = make_production_table_traces(
        num_lookups_per_table=8 * 40, num_rows=FIG16_ROWS, num_tables=2,
        seed=0)
    return [(trace.table_id * FIG16_ROWS + int(row)) * FIG16_VECTOR_BYTES
            for trace in traces for row in trace.indices]


def _random_trace(geometry):
    del geometry
    rng = random.Random(11)
    return [rng.randrange(0, 1 << 30) // 64 * 64 for _ in range(256)]


def _sequential_trace(geometry):
    del geometry
    return [index * 64 for index in range(256)]


def _conflict_trace(geometry):
    """64 distinct rows of the bank address 0 maps to, in turn."""
    target = skylake_decode(geometry, 0)
    bank_of = lambda a: (a.channel, a.dimm, a.rank,  # noqa: E731
                         a.bank_group, a.bank)
    stride = geometry.num_channels * geometry.columns_per_row * 64
    rows = {}
    address = 0
    while len(rows) < 64:
        decoded = skylake_decode(geometry, address)
        if bank_of(decoded) == bank_of(target):
            rows.setdefault(decoded.row, address)
        address += stride
    return list(rows.values())


#: name -> (trace builder, dimms per channel, ranks per DIMM)
TRACES = {
    "fig16": (_fig16_trace, 4, 2),
    "random": (_random_trace, 1, 2),
    "sequential": (_sequential_trace, 1, 2),
    "conflict": (_conflict_trace, 1, 2),
}
CHANNELS = (1, 4)
OUTSTANDING = (None, 4, 32)
REQUEST_BYTES = (64, 256)
QUEUE_DEPTHS = (2, 32)

CASES = ["%s/ch%d/out%s/req%d/qd%d" % case
         for case in [(trace, channels, outstanding, request_bytes, depth)
                      for trace in TRACES
                      for channels in CHANNELS
                      for outstanding in OUTSTANDING
                      for request_bytes in REQUEST_BYTES
                      for depth in QUEUE_DEPTHS]]


def _parse(case):
    trace, channels, outstanding, request_bytes, depth = case.split("/")
    outstanding = outstanding[len("out"):]
    return (trace, int(channels[len("ch"):]),
            None if outstanding == "None" else int(outstanding),
            int(request_bytes[len("req"):]), int(depth[len("qd"):]))


def run_case(case):
    """Run one case."""
    trace, channels, outstanding, request_bytes, depth = _parse(case)
    build, dimms, ranks = TRACES[trace]
    config = DramSystemConfig(num_channels=channels, dimms_per_channel=dimms,
                              ranks_per_dimm=ranks, queue_depth=depth)
    addresses = build(config.geometry())
    system = DramSystem(config)
    result = system.run_trace(
        addresses, request_bytes=request_bytes,
        outstanding_per_channel=outstanding)
    return {
        "result": result.as_dict(),
        "channels": [dataclasses.asdict(stats)
                     for stats in result.per_channel_stats],
        "completion_cycles": [cycle for controller in system.controllers
                              for cycle in controller.completion_cycles],
    }


def canonical(record):
    return json.dumps(record, sort_keys=True)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_the_matrix(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_baseline_matches_golden(golden, case):
    record = run_case(case)
    assert len(record["completion_cycles"]) == record["result"]["requests"]
    assert canonical(record) == canonical(golden[case])


def test_matrix_exercises_every_row_outcome(golden):
    """The fixture is only a spec if the branches it pins actually fire."""
    stats = [channel for case in CASES for channel in golden[case]["channels"]]
    for field in ("row_hits", "row_misses", "row_conflicts"):
        assert any(channel[field] > 0 for channel in stats), field
    conflict = [channel for case in CASES
                if case.startswith("conflict/") and "/req64/" in case
                for channel in golden[case]["channels"]]
    assert all(channel["row_conflicts"] > channel["row_hits"]
               for channel in conflict)
