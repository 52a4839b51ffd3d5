"""Bit-exactness tests for the compiled command-issue kernel.

The contract of :mod:`repro.core.kernels` is that every flavour --
``numba`` (jitted flat arrays), ``flat-python`` (the same flat-array
source, un-jitted), and ``python`` (the column window loop of
:func:`~repro.core.rank_nmp.execute_segments`, the readable spec) --
produces *identical* cycles, statistics, cache contents and bank state.
These tests pin that contract at two levels: randomized instruction
streams on a one-rank channel's rank-NMP (down to the per-bank timing
state), and full-system runs over the RecNMP variant matrix of the
paper.
"""

import contextlib
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reorder_oracle
from repro.core import kernels
from repro.core.instruction import (
    DDR_CMD_ACT,
    DDR_CMD_PRE,
    DDR_CMD_RD,
    NMPInstruction,
    PackedInstructions,
)
from repro.core.processing_unit import RecNMPChannel
from repro.core.rank_nmp import RankNMPConfig
from repro.dlrm.operators import SLSRequest
from repro.systems import build_system
from repro.traces import make_production_table_traces, random_trace

from nmp_packets import run_instruction, run_instructions, single_rank
from rank_nmp_reference import rank_states

FULL_CMD = DDR_CMD_ACT | DDR_CMD_RD | DDR_CMD_PRE

NUM_ROWS = 6_000

#: The non-numba flavours runnable on any host.  ``flat-python`` executes
#: the *numba kernel source* un-jitted, so the jitted flavour's semantics
#: are pinned even where numba is not installed.
PORTABLE_FLAVORS = ("python", "flat-python")


def _random_instructions(rng, count, with_cache_traffic=True):
    """A randomized stream exercising hits, misses, bypasses and rows."""
    instructions = []
    for _ in range(count):
        daddr = int(rng.integers(0, 4096)) * int(rng.integers(1, 64))
        instructions.append(NMPInstruction(
            ddr_cmd=FULL_CMD,
            daddr=daddr,
            vsize=int(rng.integers(1, 5)),
            weight=float(rng.choice([1.0, 0.5])),
            locality_bit=bool(rng.integers(0, 2)) if with_cache_traffic
            else False,
            psum_tag=int(rng.integers(0, 8)),
        ))
    return instructions


class TestFlavorSelection:
    def test_active_flavor_known(self):
        assert kernels.active_flavor() in ("numba", "python")

    def test_describe_nonempty(self):
        assert kernels.describe()

    @pytest.mark.parametrize("flavor", ["cython", "disabled"])
    def test_force_flavor_rejects_unknown(self, flavor):
        with pytest.raises(ValueError, match="unknown kernel flavor"):
            with kernels.force_flavor(flavor):
                pass

    def test_force_numba_without_numba_raises(self):
        if kernels.KERNEL_FLAVOR == "numba":
            pytest.skip("numba available: forcing it is legal")
        with pytest.raises(RuntimeError, match="numba"):
            with kernels.force_flavor("numba"):
                pass

    def test_force_flavor_restores_after_body_exception(self):
        before = kernels._FORCED_FLAVOR
        with pytest.raises(RuntimeError, match="boom"):
            with kernels.force_flavor("python"):
                assert kernels._FORCED_FLAVOR == "python"
                raise RuntimeError("boom")
        assert kernels._FORCED_FLAVOR == before

    def test_force_flavor_exit_without_enter_is_noop(self):
        stray = kernels.force_flavor("python")
        with kernels.force_flavor("flat-python"):
            stray.__exit__(None, None, None)
            assert kernels._FORCED_FLAVOR == "flat-python"

    def test_force_flavor_reentrant_same_instance(self):
        before = kernels._FORCED_FLAVOR
        cm = kernels.force_flavor("python")
        with cm:
            with cm:
                assert kernels._FORCED_FLAVOR == "python"
            assert kernels._FORCED_FLAVOR == "python"
        assert kernels._FORCED_FLAVOR == before

    def test_force_flavor_nested_distinct_instances(self):
        before = kernels._FORCED_FLAVOR
        with kernels.force_flavor("python"):
            with kernels.force_flavor("flat-python"):
                assert kernels._FORCED_FLAVOR == "flat-python"
            assert kernels._FORCED_FLAVOR == "python"
        assert kernels._FORCED_FLAVOR == before


def _run_split(flavor, config, instructions, arrivals, window, split):
    """Run ``instructions`` on a fresh one-rank channel of ``flavor`` in
    two calls (split at ``split``, so state carries across a call
    boundary); returns ``(last, snapshot)``."""
    with kernels.force_flavor(flavor):
        rank = single_rank(config)
    last = None
    for part in (slice(0, split), slice(split, None)):
        last = run_instructions(rank, instructions[part], arrivals[part],
                                reorder_window=window)
    return last, rank_states(rank)


class TestRankTriParity:
    """python and flat-python agree on randomized streams."""

    @pytest.mark.parametrize("use_cache", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_tri_parity(self, seed, use_cache):
        rng = np.random.default_rng(seed)
        instructions = _random_instructions(rng, 120)
        arrivals = np.cumsum(rng.integers(0, 3, size=120)).tolist()
        config = RankNMPConfig(use_cache=use_cache,
                               cache_capacity_bytes=4096)
        reference = _run_split("python", config, instructions, arrivals, 8,
                               70)
        assert _run_split("flat-python", config, instructions, arrivals, 8,
                          70) == reference

    @pytest.mark.parametrize("use_cache", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_tri_parity_packed(self, seed, use_cache):
        """The same through a four-rank channel's ``execute_packed``:
        the per-rank gather and decode feed every flavor alike."""
        rng = np.random.default_rng(seed)
        packed = PackedInstructions.from_instructions(
            _random_instructions(rng, 120))
        config = RankNMPConfig(use_cache=use_cache,
                               cache_capacity_bytes=4096)
        observed = {}
        for flavor in PORTABLE_FLAVORS:
            with kernels.force_flavor(flavor):
                channel = RecNMPChannel(num_dimms=2, ranks_per_dimm=2,
                                        rank_config=config)
            completions = [channel.execute_packed(packed, start_cycle=start)
                           for start in (0, 500)]
            observed[flavor] = (completions, rank_states(channel))
        assert observed["flat-python"] == observed["python"]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_flavors_agree(self, data):
        """``python`` and ``flat-python`` leave identical rank-NMP state."""
        count = data.draw(st.integers(0, 60), label="count")
        daddr = st.one_of(st.integers(0, 63), st.integers(0, 1 << 20))
        instructions = [
            NMPInstruction(ddr_cmd=FULL_CMD, daddr=data.draw(daddr),
                           vsize=data.draw(st.integers(1, 4)),
                           weight=data.draw(st.sampled_from([1.0, 0.5])),
                           locality_bit=data.draw(st.booleans()),
                           psum_tag=data.draw(st.integers(0, 15)))
            for _ in range(count)]
        # Sorted: the C/A interface delivers a rank's instructions in
        # issue order.
        arrivals = sorted(data.draw(
            st.lists(st.integers(0, 400), min_size=count, max_size=count),
            label="arrivals"))
        window = data.draw(st.integers(1, 20), label="window")
        config = RankNMPConfig(use_cache=data.draw(st.booleans()),
                               cache_capacity_bytes=1024)
        split = data.draw(st.integers(0, count), label="split")
        assert _run_split("flat-python", config, instructions, arrivals,
                          window, split) == \
            _run_split("python", config, instructions, arrivals, window,
                       split)

    def test_single_instruction_path(self):
        inst = NMPInstruction(ddr_cmd=FULL_CMD, daddr=123, vsize=2,
                              locality_bit=True)
        results = {}
        for flavor in PORTABLE_FLAVORS:
            with kernels.force_flavor(flavor):
                rank = single_rank(RankNMPConfig())
                completion = run_instruction(rank, inst)
                completion2 = run_instruction(rank, inst)
            results[flavor] = (completion, completion2,
                               rank_states(rank))
        assert results["flat-python"] == results["python"]

    def test_reset_clears_kernel_state(self):
        rng = np.random.default_rng(7)
        instructions = _random_instructions(rng, 40)
        rank = single_rank(RankNMPConfig(use_cache=True))
        run_instructions(rank, instructions)
        first = rank_states(rank)
        rank.reset()
        run_instructions(rank, instructions)
        assert rank_states(rank) == first


def _requests_for(trace_kind, num_tables=3, batch=3, pooling=14, seed=0):
    per_table = batch * pooling
    if trace_kind == "production":
        traces = make_production_table_traces(
            num_lookups_per_table=per_table, num_rows=NUM_ROWS,
            num_tables=num_tables, seed=seed)
    else:
        traces = [random_trace(NUM_ROWS, per_table, table_id=t,
                               seed=seed + t)
                  for t in range(num_tables)]
    return [SLSRequest(table_id=trace.table_id,
                       indices=trace.indices[:per_table],
                       lengths=np.full(batch, pooling))
            for trace in traces]


def _system_fingerprint(result):
    return (result.total_cycles, result.latency_ns, result.cache_hit_rate,
            result.energy_nj)


class TestSystemMatrix:
    """Full-system bit-exactness over the RecNMP variant matrix.

    Four paper variants x two vector sizes x two trace localities x both
    rank assignments (including stateful first-touch page colouring),
    every flavor's ``execute_packed`` path vs. the python column loop fed
    every packet through ``execute_packet`` (the issue order as a
    permutation).
    """

    @pytest.mark.parametrize("rank_assignment", ["address", "page-coloring"])
    @pytest.mark.parametrize("trace_kind", ["random", "production"])
    @pytest.mark.parametrize("vector_bytes", [64, 256])
    @pytest.mark.parametrize("variant", ["recnmp-base", "recnmp-cache",
                                         "recnmp-sched", "recnmp-opt"])
    def test_kernel_matches_legacy(self, variant, vector_bytes, trace_kind,
                                   rank_assignment):
        # 16 poolings x 18 lookups = 288-instruction packets, above the
        # packed dispatch cutover, so the kernel path (not the
        # small-packet object fallback) is what the matrix exercises.
        requests = _requests_for(trace_kind, pooling=18)

        def run(flavor):
            with kernels.force_flavor(flavor):
                with build_system(variant, table_rows=NUM_ROWS,
                                  vector_size_bytes=vector_bytes,
                                  rank_assignment=rank_assignment,
                                  poolings_per_packet=16,
                                  compare_baseline=False) as system:
                    return _system_fingerprint(system.run(requests))

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "packed_dispatch_min_instructions",
                          lambda flavor=None: sys.maxsize)
            reference = run("python")
        for flavor in PORTABLE_FLAVORS:
            assert run(flavor) == reference, flavor
        if kernels.KERNEL_FLAVOR == "numba":
            assert run("numba") == reference


class TestForcedFallback:
    """Missing numba must degrade gracefully to bit-identical
    results."""

    SNIPPET = """
import sys
{prelude}
from repro.core import kernels
assert kernels.active_flavor() == {expected!r}, kernels.active_flavor()
import numpy as np
from repro.dlrm.operators import SLSRequest
from repro.systems import build_system
from repro.traces import random_trace

trace = random_trace(6000, 42, table_id=0, seed=1)
requests = [SLSRequest(table_id=0, indices=trace.indices,
                       lengths=np.array([21, 21]))]
with build_system("recnmp-opt", table_rows=6000, vector_size_bytes=128,
                  compare_baseline=False) as system:
    print("CYCLES=%d" % system.run(requests).total_cycles)
"""

    BLOCK_NUMBA = """
import importlib.abc

class _Block(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "numba" or name.startswith("numba."):
            raise ImportError("numba blocked for fallback test")
        return None

sys.meta_path.insert(0, _Block())
"""

    def _run_subprocess(self, prelude, expected):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep))
        script = self.SNIPPET.format(prelude=prelude, expected=expected)
        completed = subprocess.run([sys.executable, "-c", script],
                                   env=env, capture_output=True, text=True,
                                   timeout=240)
        assert completed.returncode == 0, completed.stderr
        for line in completed.stdout.splitlines():
            if line.startswith("CYCLES="):
                return int(line.split("=", 1)[1])
        raise AssertionError("no CYCLES line in output: %r"
                             % completed.stdout)

    def _reference_cycles(self):
        trace = random_trace(6000, 42, table_id=0, seed=1)
        requests = [SLSRequest(table_id=0, indices=trace.indices,
                               lengths=np.array([21, 21]))]
        with build_system("recnmp-opt", table_rows=6000,
                          vector_size_bytes=128,
                          compare_baseline=False) as system:
            return system.run(requests).total_cycles

    def test_import_without_numba(self):
        # Block numba at import time: the module must import cleanly and
        # fall back to the pure-python flavour with identical results.
        cycles = self._run_subprocess(self.BLOCK_NUMBA, "python")
        assert cycles == self._reference_cycles()


class TestPackedHelpers:
    def test_pack_decoded_matches_scalar_decode(self):
        config = RankNMPConfig()
        daddrs = np.array([0, 129, 4097, 65535, 12345], dtype=np.int64)
        bank_groups, banks, rows = kernels.pack_decoded(config, daddrs)
        for position, daddr in enumerate(daddrs.tolist()):
            block = daddr // config.columns_per_row
            assert bank_groups[position] == block % config.num_bank_groups
            block //= config.num_bank_groups
            assert banks[position] == block % config.banks_per_group
            assert rows[position] == block // config.banks_per_group

    def test_reorder_indices_is_permutation(self):
        rng = np.random.default_rng(11)
        rows = rng.integers(0, 6, size=40)
        ranks = rng.integers(0, 4, size=40)
        order = kernels.reorder_packets(rows, ranks, [0, 40], 8, 4)
        assert sorted(order.tolist()) == list(range(40))

    def test_reorder_groups_same_row(self):
        # Rows [A, B, A] on one rank: after issuing A, the windowed scan
        # must hoist the second A ahead of B.
        rows = np.array([5, 9, 5], dtype=np.int64)
        ranks = np.zeros(3, dtype=np.int64)
        order = kernels.reorder_packets(rows, ranks, [0, 3], 8, 1)
        assert order.tolist() == [0, 2, 1]

    @pytest.mark.parametrize(
        "flavor", PORTABLE_FLAVORS + (("numba",)
                                      if kernels.KERNEL_FLAVOR == "numba"
                                      else ()))
    def test_reorder_flavors_agree_on_dispatches(self, flavor):
        # A dispatch's packets reorder independently: every flavor gives
        # each packet the oracle's permutation within its own span, and
        # packets of at most two instructions keep packet order.
        rng = np.random.default_rng(5)
        for _ in range(60):
            num_ranks = int(rng.integers(1, 9))
            window = int(rng.integers(0, 20))
            sizes = rng.integers(0, 40, size=int(rng.integers(1, 5)))
            bounds = np.concatenate([[0], np.cumsum(sizes)]).tolist()
            rows = rng.integers(0, 6, size=bounds[-1])
            ranks = rng.integers(0, num_ranks, size=bounds[-1])
            expected = []
            for begin, end in zip(bounds, bounds[1:]):
                expected += [begin + index
                             for index in reorder_oracle.reorder_window(
                                 rows[begin:end].tolist(),
                                 ranks[begin:end].tolist(),
                                 max(window, 1), num_ranks)] \
                    if end - begin > 2 else list(range(begin, end))
            with kernels.force_flavor(flavor):
                order = kernels.reorder_packets(rows, ranks, bounds, window,
                                                num_ranks)
            assert order.dtype == np.int64
            assert order.tolist() == expected

    def test_packed_dispatch_cutover_by_flavor(self):
        # The jitted flavour amortises its call overhead on far smaller
        # packets than the CPython flavours, which all share one cutover;
        # the import-time flavor picks it.
        assert 0 < kernels._NUMBA_PACKED_MIN_INSTRUCTIONS \
            < kernels._CPYTHON_PACKED_MIN_INSTRUCTIONS
        assert kernels.packed_dispatch_min_instructions() == (
            kernels._NUMBA_PACKED_MIN_INSTRUCTIONS
            if kernels.KERNEL_FLAVOR == "numba"
            else kernels._CPYTHON_PACKED_MIN_INSTRUCTIONS)
        # Forcing a flavor disables the cutover: every packet goes to
        # ``execute_packed``.
        for flavor in PORTABLE_FLAVORS:
            with kernels.force_flavor(flavor):
                assert kernels.packed_dispatch_min_instructions() == 0

    def test_small_packets_fall_back_bit_identically(self):
        # Built under the ambient (un-forced) flavor, packets below the
        # cutover go to ``execute_packet``, even with a kernel bound;
        # forced ``python`` sends every packet to ``execute_packed``.
        # The dispatch mix must not disturb the results.
        requests = _requests_for("random", num_tables=2, batch=2,
                                 pooling=6, seed=3)

        def run(forced):
            context = kernels.force_flavor(forced) if forced else \
                contextlib.nullcontext()
            with context:
                with build_system("recnmp-opt", table_rows=NUM_ROWS,
                                  compare_baseline=False) as system:
                    return _system_fingerprint(system.run(requests))

        assert run(None) == run("python")
