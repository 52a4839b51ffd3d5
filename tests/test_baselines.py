"""Tests for the compared systems: host, TensorDIMM and Chameleon."""

import pytest

from repro.systems import build_system
from repro.traces.production import make_production_table_traces
from repro.traces.synthetic import batched_requests_from_trace, random_trace

NUM_ROWS = 1_024
BATCH = 4
POOLING = 8


def _row_stride_256(table_id, row):
    """One 256 B slot per row, so 64 and 256 B vectors read the same rows."""
    return (table_id * NUM_ROWS + row) * 256


def _requests(traces):
    return [batched_requests_from_trace(trace, BATCH, POOLING)[0]
            for trace in traces]


def _random_requests(num_tables=4):
    return _requests([random_trace(NUM_ROWS, BATCH * POOLING, table_id=t,
                                   seed=t) for t in range(num_tables)])


def _production_requests(num_tables=4):
    return _requests(make_production_table_traces(
        num_lookups_per_table=BATCH * POOLING, num_rows=NUM_ROWS,
        num_tables=num_tables, seed=0))


def _speedup(name, requests=None, **overrides):
    system = build_system(name, table_rows=NUM_ROWS, **overrides)
    return system.run(requests or _random_requests()).speedup_vs_baseline


class TestHost:
    def test_trace_execution(self):
        requests = _random_requests()
        result = build_system("host", address_of=_row_stride_256).run(
            requests)
        lookups = sum(request.total_lookups for request in requests)
        assert result.total_cycles > 0
        assert result.num_lookups == lookups
        assert result.raw.requests == lookups      # one 64 B burst each
        assert result.energy_nj > 0
        assert result.speedup_vs_baseline == 1.0

    def test_vector_bytes_expand_work(self):
        requests = _random_requests()
        small = build_system("host", address_of=_row_stride_256,
                             vector_size_bytes=64).run(requests)
        large = build_system("host", address_of=_row_stride_256,
                             vector_size_bytes=256).run(requests)
        assert large.total_cycles > small.total_cycles
        assert large.raw.requests == 4 * small.raw.requests


class TestTensorDIMM:
    def test_scales_with_dimms_not_ranks(self):
        two_dimms = _speedup("tensordimm", num_dimms=2, ranks_per_dimm=1)
        four_dimms = _speedup("tensordimm", num_dimms=4, ranks_per_dimm=1)
        more_ranks = _speedup("tensordimm", num_dimms=2, ranks_per_dimm=4)
        assert four_dimms == pytest.approx(2 * two_dimms)
        assert more_ranks == pytest.approx(two_dimms)

    def test_small_vectors_limit_per_vector_parallelism(self):
        system = build_system("tensordimm", num_dimms=4)
        assert system.effective_parallelism(vector_bytes=64) == 1
        assert system.effective_parallelism(vector_bytes=256) == 4
        assert _speedup("tensordimm", num_dimms=4, vector_size_bytes=64,
                        batch_parallel=False) == pytest.approx(1.0)

    def test_locality_has_no_effect(self):
        assert _speedup("tensordimm", _random_requests()) == \
            _speedup("tensordimm", _production_requests())

    def test_validation(self):
        with pytest.raises(ValueError, match="num_dimms"):
            build_system("tensordimm", num_dimms=0)
        with pytest.raises(ValueError, match="dimm_efficiency"):
            build_system("tensordimm", dimm_efficiency=0)
        with pytest.raises(ValueError, match="multiple of 64"):
            build_system("tensordimm").effective_parallelism(
                vector_bytes=100)


class TestChameleon:
    def test_multiplexing_penalty(self):
        assert _speedup("chameleon", num_dimms=4) < \
            _speedup("tensordimm", num_dimms=4)
        assert _speedup("chameleon", multiplexing_efficiency=0.5) < \
            _speedup("chameleon")

    def test_scales_with_dimms(self):
        assert _speedup("chameleon", num_dimms=4) == \
            pytest.approx(2 * _speedup("chameleon", num_dimms=2))

    def test_locality_has_no_effect(self):
        assert _speedup("chameleon", _random_requests()) == \
            _speedup("chameleon", _production_requests())

    def test_validation(self):
        with pytest.raises(ValueError, match="multiplexing_efficiency"):
            build_system("chameleon", multiplexing_efficiency=0)
        with pytest.raises(ValueError, match="num_dimms"):
            build_system("chameleon", ranks_per_dimm=0)
