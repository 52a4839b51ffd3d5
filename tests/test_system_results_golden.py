"""Golden results of the host, TensorDIMM and Chameleon systems.

``golden/system_results.json`` holds, for every case of the matrix
below, what a registry-built system reported for one fixed request
set: ``SystemResult.as_dict()``, ``describe()`` and
``service_time_us``.  The host system is the DDR4 normalisation point
of every figure, and TensorDIMM and Chameleon are the analytical
Fig. 16 comparison points grounded on its cycle count, so the three
must keep every reported byte however they are implemented.

Matrix: channel populations 1x2, 2x4 and 4x2 x 64 or 256-byte vectors x
the host, TensorDIMM and Chameleon at their defaults, TensorDIMM with
``batch_parallel=False`` and with ``dimm_efficiency=0.8``, and
Chameleon with ``multiplexing_efficiency=0.5``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.dlrm.operators import SLSRequest
from repro.perf.baseline_cache import clear_baseline_cache
from repro.systems import build_system

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" \
    / "system_results.json"

NUM_ROWS = 2_048
NUM_TABLES = 4
BATCH = 4
POOLING = 8

POPULATIONS = ((1, 2), (2, 4), (4, 2))
VECTOR_BYTES = (64, 256)
#: variant label -> (registry name, overrides)
VARIANTS = {
    "host": ("host", {}),
    "tensordimm": ("tensordimm", {}),
    "tensordimm-serial": ("tensordimm", {"batch_parallel": False}),
    "tensordimm-eff0.8": ("tensordimm", {"dimm_efficiency": 0.8}),
    "chameleon": ("chameleon", {}),
    "chameleon-mux0.5": ("chameleon", {"multiplexing_efficiency": 0.5}),
}

CASES = ["%s/%dx%d/v%d" % (variant, dimms, ranks, vector)
         for variant in VARIANTS
         for dimms, ranks in POPULATIONS
         for vector in VECTOR_BYTES]


def _requests():
    rng = np.random.default_rng(11)
    return [SLSRequest(table_id=table,
                       indices=rng.integers(0, NUM_ROWS,
                                            size=BATCH * POOLING),
                       lengths=np.full(BATCH, POOLING))
            for table in range(NUM_TABLES)]


def run_case(case):
    """Build and run one case; returns its recorded fields."""
    variant, population, vector = case.split("/")
    name, overrides = VARIANTS[variant]
    dimms, ranks = (int(part) for part in population.split("x"))
    system = build_system(name, num_dimms=dimms, ranks_per_dimm=ranks,
                          vector_size_bytes=int(vector[1:]),
                          table_rows=NUM_ROWS, **overrides)
    requests = _requests()
    return {
        "as_dict": system.run(requests).as_dict(),
        "describe": system.describe(),
        "service_time_us": system.service_time_us(requests),
    }


def canonical(record):
    return json.dumps(record, sort_keys=True)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_the_matrix(golden):
    assert sorted(golden) == sorted(CASES)
    assert len(CASES) == 36


@pytest.mark.parametrize("case", CASES)
def test_system_matches_golden(golden, case):
    clear_baseline_cache()
    assert canonical(run_case(case)) == canonical(golden[case])


def test_matrix_exercises_the_parameters(golden):
    """The fixture is only a spec if its cases differ where claimed."""
    def speedup(case):
        return golden[case]["as_dict"]["speedup_vs_baseline"]

    for population in ("1x2", "2x4", "4x2"):
        for vector in ("v64", "v256"):
            suffix = "/%s/%s" % (population, vector)
            assert speedup("host" + suffix) == 1.0
            assert speedup("tensordimm-eff0.8" + suffix) == \
                pytest.approx(0.8 * speedup("tensordimm" + suffix))
            assert speedup("chameleon-mux0.5" + suffix) < \
                speedup("chameleon" + suffix)
    # Without batch parallelism a 64 B vector spans one DIMM only.
    assert speedup("tensordimm-serial/4x2/v64") == 1.0
    assert speedup("tensordimm-serial/4x2/v256") == 4.0
