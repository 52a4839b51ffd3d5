"""Tests for repro.baselines (host, TensorDIMM, Chameleon)."""

import pytest

from repro.baselines.chameleon import Chameleon
from repro.baselines.host import HostBaseline
from repro.baselines.tensordimm import TensorDIMM
from repro.dram.system import DramSystemConfig


class TestHostBaseline:
    def test_trace_execution(self):
        baseline = HostBaseline(DramSystemConfig(num_channels=1))
        result = baseline.run_trace([i * 64 for i in range(128)])
        assert result.cycles > 0
        assert result.bytes_moved == 128 * 64
        assert result.energy_nj > 0

    def test_vector_bytes_expand_work(self):
        baseline = HostBaseline(DramSystemConfig(num_channels=1))
        small = baseline.run_trace([i * 256 for i in range(64)],
                                   vector_bytes=64)
        large = HostBaseline(DramSystemConfig(num_channels=1)).run_trace(
            [i * 256 for i in range(64)], vector_bytes=256)
        assert large.cycles > small.cycles
        assert large.bytes_moved == 4 * small.bytes_moved


class TestTensorDIMM:
    def test_scales_with_dimms_not_ranks(self):
        two_dimms = TensorDIMM(num_dimms=2, ranks_per_dimm=1)
        four_dimms = TensorDIMM(num_dimms=4, ranks_per_dimm=1)
        more_ranks = TensorDIMM(num_dimms=2, ranks_per_dimm=4)
        assert four_dimms.memory_latency_speedup() == pytest.approx(
            2 * two_dimms.memory_latency_speedup())
        assert more_ranks.memory_latency_speedup() == pytest.approx(
            two_dimms.memory_latency_speedup())

    def test_small_vectors_limit_per_vector_parallelism(self):
        model = TensorDIMM(num_dimms=4)
        assert model.effective_parallelism(vector_bytes=64) == 1
        assert model.effective_parallelism(vector_bytes=256) == 4
        assert model.memory_latency_speedup(vector_bytes=64,
                                            batch_parallel=False) == \
            pytest.approx(1.0)

    def test_locality_has_no_effect(self):
        model = TensorDIMM(num_dimms=4)
        assert model.memory_latency_speedup(trace_kind="random") == \
            model.memory_latency_speedup(trace_kind="production")

    def test_validation(self):
        with pytest.raises(ValueError):
            TensorDIMM(num_dimms=0)
        with pytest.raises(ValueError):
            TensorDIMM(dimm_efficiency=0)
        with pytest.raises(ValueError):
            TensorDIMM().effective_parallelism(vector_bytes=100)


class TestChameleon:
    def test_multiplexing_penalty(self):
        chameleon = Chameleon(num_dimms=4)
        tensordimm = TensorDIMM(num_dimms=4)
        assert chameleon.memory_latency_speedup() < \
            tensordimm.memory_latency_speedup()

    def test_scales_with_dimms(self):
        assert Chameleon(num_dimms=4).memory_latency_speedup() == \
            pytest.approx(2 * Chameleon(num_dimms=2).memory_latency_speedup())

    def test_locality_has_no_effect(self):
        model = Chameleon()
        assert model.memory_latency_speedup(trace_kind="random") == \
            model.memory_latency_speedup(trace_kind="production")

    def test_validation(self):
        with pytest.raises(ValueError):
            Chameleon(multiplexing_efficiency=0)
        with pytest.raises(ValueError):
            Chameleon(num_cgra_cores=0)
