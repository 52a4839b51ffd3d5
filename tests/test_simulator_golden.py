"""Golden RecNMP simulator results: the whole packet path, pinned.

``golden/simulator_results.json`` holds, for every case of the matrix
below, the :class:`~repro.core.simulator.RecNMPResult` fields a run
produced while the packet generator still built one ``NMPInstruction``
per lookup and the memory controller still dispatched small packets as
instruction objects: total and per-packet cycles, the per-rank load, the
channel statistics, the RankCache hit rate, the energy and the DDR4
baseline cycles.  Every kernel flavor must reproduce each case byte for
byte: the ambient flavor always, and on numba hosts forced ``python``
too, so the CPython column loop stays pinned where the jitted kernel is
the default.

Matrix: the four ``recnmp-*`` variants x 64 or 256-byte vectors x
80-instruction (8 poolings of 10) or 288-instruction (16 poolings of 18)
packets x address-hash or first-touch page-colouring rank assignment,
plus extra cases for weighted lookups, ragged pooling lengths and 1 or
16 poolings per packet.
"""

import contextlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import kernels
from repro.core.simulator import RecNMPConfig, RecNMPSimulator
from repro.dlrm.operators import SLSRequest
from repro.perf.baseline_cache import clear_baseline_cache
from repro.systems.base import TableLayout
from repro.systems.registry import system_defaults
from repro.traces import make_production_table_traces

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" \
    / "simulator_results.json"

NUM_ROWS = 6_000
NUM_TABLES = 3
BATCH = 16

VARIANTS = ("recnmp-base", "recnmp-cache", "recnmp-sched", "recnmp-opt")
VECTOR_BYTES = (64, 256)
#: name -> (poolings per packet, lookups per pooling)
SHAPES = {"8x10": (8, 10), "16x18": (16, 18)}
ASSIGNMENTS = ("address", "page-coloring")

MATRIX = ["%s/v%d/%s/%s" % (variant, vector, shape, assignment)
          for variant in VARIANTS
          for vector in VECTOR_BYTES
          for shape in SHAPES
          for assignment in ASSIGNMENTS]

#: name -> (variant, vector bytes, poolings per packet, lengths kind,
#: weighted, rank assignment)
EXTRAS = {
    "weighted": ("recnmp-opt", 128, 8, "fixed10", True, "address"),
    "ragged": ("recnmp-opt", 64, 8, "ragged", False, "page-coloring"),
    "ppp1": ("recnmp-opt", 64, 1, "fixed10", False, "address"),
    "ppp16": ("recnmp-cache", 64, 16, "fixed10", True, "address"),
}

CASES = MATRIX + ["extra/%s" % name for name in EXTRAS]

#: Flavors every case runs under (None = the ambient flavor).
FLAVORS = [None] + (["python"] if kernels.KERNEL_FLAVOR == "numba" else [])


def _parse(case):
    if case.startswith("extra/"):
        return EXTRAS[case[len("extra/"):]]
    variant, vector, shape, assignment = case.split("/")
    poolings, pooling = SHAPES[shape]
    return (variant, int(vector[1:]), poolings, "fixed%d" % pooling, False,
            assignment)


def _requests(lengths_kind, weighted):
    rng = np.random.default_rng(7)
    if lengths_kind == "ragged":
        lengths = rng.integers(1, 30, size=BATCH)
    else:
        lengths = np.full(BATCH, int(lengths_kind[len("fixed"):]))
    total = int(lengths.sum())
    traces = make_production_table_traces(
        num_lookups_per_table=total, num_rows=NUM_ROWS,
        num_tables=NUM_TABLES, seed=0)
    requests = []
    for trace in traces:
        weights = None
        if weighted:
            # Half the lookups carry exactly 1.0 (unweighted datapath).
            weights = np.where(rng.random(total) < 0.5, 1.0,
                               rng.uniform(0.1, 2.0, total))
        requests.append(SLSRequest(table_id=trace.table_id,
                                   indices=trace.indices[:total],
                                   lengths=lengths, weights=weights))
    return requests


def run_case(case):
    """Run one case on a fresh simulator; returns its recorded fields."""
    variant, vector, poolings, lengths_kind, weighted, assignment = \
        _parse(case)
    config = RecNMPConfig(**dict(system_defaults(variant),
                                 vector_size_bytes=vector,
                                 poolings_per_packet=poolings,
                                 rank_assignment=assignment))
    layout = TableLayout(num_rows=NUM_ROWS, vector_bytes=vector)
    simulator = RecNMPSimulator(config, address_of=layout.address_of)
    result = simulator.run_requests(_requests(lengths_kind, weighted))
    return {
        "total_cycles": result.total_cycles,
        "per_packet_cycles": result.per_packet_cycles,
        "num_packets": result.num_packets,
        "num_instructions": result.num_instructions,
        "rank_load": result.rank_load,
        "channel_stats": result.channel_stats,
        "cache_hit_rate": result.cache_hit_rate,
        "energy_nj": result.energy_nj,
        "baseline_cycles": result.baseline_cycles,
    }


def canonical(record):
    return json.dumps(record, sort_keys=True)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_the_matrix(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_simulator_matches_golden(golden, case):
    for flavor in FLAVORS:
        clear_baseline_cache()
        with (kernels.force_flavor(flavor) if flavor
              else contextlib.nullcontext()):
            record = run_case(case)
        assert canonical(record) == canonical(golden[case]), flavor


def test_matrix_exercises_the_packet_shapes(golden):
    """The fixture is only a spec if its cases cover what they claim."""
    per_packet = {case: record["num_instructions"] // record["num_packets"]
                  for case, record in golden.items()}
    assert {per_packet[case] for case in MATRIX if "/8x10/" in case} == {80}
    assert {per_packet[case] for case in MATRIX
            if "/16x18/" in case} == {288}
    assert per_packet["extra/ppp1"] == 10
    cached = [golden[case]["channel_stats"] for case in MATRIX
              if not case.startswith("recnmp-base/")]
    assert all(stats["cache_hits"] > 0 for stats in cached)
    assert all(golden[case]["baseline_cycles"] > 0 for case in CASES)
