"""Randomized equivalence tests for the serving event-loop kernels.

The compiled FIFO/EDF/admission kernels in
:mod:`repro.serving.event_kernels` must be *bit-identical* to the
reference loops they replace (the ``heapq`` dispatch queues and the
per-query admission rules in ``queue_oracles``; the admission property
lives in ``tests/test_admission_properties.py``).  These tests drive
randomized workloads -- with ties, idle gaps, missing deadlines and
every server count the engines use -- through every interpreted flavor
against the reference loops, pin the flavor plumbing, and (mirroring
``tests/test_core_kernels.py``) prove in a subprocess that a host
without numba degrades to the same results.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import queue_oracles
from repro.serving import event_kernels
from repro.serving.admission import TokenBucketAdmission
from repro.serving.event_kernels import (
    edf_queue_times,
    fifo_queue_times,
    force_flavor,
)
from repro.serving.events import simulate_batch_queue

#: Interpreted flavors available on every host; the jitted flavor rides
#: along automatically where numba is installed (``active_flavor()``
#: resolves to it and the same tests run through it in the numba CI job).
FLAVORS = ["python", "flat-python"]
if event_kernels.active_flavor() == "numba":
    FLAVORS.append("numba")


def _simulate_on_oracles(*args, **kwargs):
    """``simulate_batch_queue`` with the ``heapq`` reference loops in
    place of the event kernels."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(event_kernels, "fifo_queue_times",
                      queue_oracles.fifo_queue_times)
        patch.setattr(event_kernels, "edf_queue_times",
                      queue_oracles.edf_queue_times)
        return simulate_batch_queue(*args, **kwargs)


def _random_queue(seed, size):
    """Ready/service vectors with ties, bursts and idle gaps."""
    rng = np.random.default_rng(seed)
    # Integer-valued gaps draw heavy ties (gap 0 = simultaneous ready
    # times) and occasional long idle stretches that drain the servers.
    gaps = rng.choice([0.0, 1.0, 2.0, 7.0, 500.0], size=size,
                      p=[0.3, 0.3, 0.2, 0.15, 0.05])
    ready = np.cumsum(gaps)
    services = rng.integers(1, 60, size=size).astype(np.float64)
    # Shuffle so arrival order != index order (the engines pass batches
    # in formation order, but the kernels must not rely on it).
    perm = rng.permutation(size)
    return ready[perm], services[perm]


class TestFifoKernels:
    @pytest.mark.parametrize("num_servers", [1, 2, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_heapq_reference(self, seed, num_servers):
        ready, services = _random_queue(seed, 400)
        arrival_order = np.argsort(ready, kind="stable")
        starts, completes = queue_oracles.fifo_queue_times(
            ready, services, arrival_order, num_servers)
        for flavor in FLAVORS:
            with force_flavor(flavor):
                got_starts, got_completes = fifo_queue_times(
                    ready, services, arrival_order, num_servers)
            assert np.array_equal(got_starts, starts), flavor
            assert np.array_equal(got_completes, completes), flavor

    @pytest.mark.parametrize("num_servers", [2, 8])
    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_simulate_batch_queue_flavors_match_oracle(self, seed,
                                                       num_servers):
        ready, services = _random_queue(seed, 300)
        expected = _simulate_on_oracles(ready, services, num_servers)
        for flavor in FLAVORS:
            with force_flavor(flavor):
                got = simulate_batch_queue(ready, services, num_servers)
            assert np.array_equal(got[0], expected[0]), flavor
            assert np.array_equal(got[1], expected[1]), flavor
            assert got[2] == expected[2], flavor

    def test_single_batch(self):
        ready = np.array([5.0])
        services = np.array([3.0])
        order = np.array([0], dtype=np.int64)
        for flavor in FLAVORS:
            with force_flavor(flavor):
                starts, completes = fifo_queue_times(ready, services, order,
                                                     4)
            assert starts[0] == 5.0 and completes[0] == 8.0


class TestEdfKernels:
    def _priorities(self, rng, size):
        # Deadline-like priorities with heavy ties and +inf (no
        # deadline) entries -- the engine's exact construction.
        priorities = rng.choice([10.0, 20.0, 20.0, 50.0, np.inf],
                                size=size)
        offsets = rng.integers(0, 3, size=size).astype(np.float64)
        return priorities + offsets

    @pytest.mark.parametrize("num_servers", [1, 2, 8])
    @pytest.mark.parametrize("seed", [20, 21, 22, 23])
    def test_flavors_match_oracle(self, seed, num_servers):
        rng = np.random.default_rng(seed)
        ready, services = _random_queue(seed, 300)
        priorities = self._priorities(rng, ready.size)
        expected = _simulate_on_oracles(ready, services, num_servers,
                                        order="edf", priorities=priorities)
        for flavor in FLAVORS:
            with force_flavor(flavor):
                got = simulate_batch_queue(ready, services, num_servers,
                                           order="edf",
                                           priorities=priorities)
            assert np.array_equal(got[0], expected[0]), flavor
            assert np.array_equal(got[1], expected[1]), flavor
            assert got[2] == expected[2], flavor

    def test_urgent_batch_overtakes(self):
        # Two batches waiting when the server frees: the later-arriving
        # but tighter-deadline batch must start first under EDF.
        ready = np.array([0.0, 1.0, 2.0])
        services = np.array([10.0, 5.0, 5.0])
        priorities = np.array([np.inf, 100.0, 20.0])
        order = np.argsort(ready, kind="stable")
        for flavor in FLAVORS:
            with force_flavor(flavor):
                starts, _ = edf_queue_times(ready, services, priorities,
                                            order, 1)
            assert starts[2] < starts[1]


class TestAdmissionKernels:
    @pytest.mark.parametrize("chunk", [1, 7, 100])
    def test_chunked_state_carry_matches_oneshot(self, chunk):
        rng = np.random.default_rng(99)
        size = 400
        arrivals = np.cumsum(rng.choice([0.0, 5.0, 30.0], size=size))
        slacks = np.where(rng.random(size) < 0.3, np.nan,
                          rng.integers(10, 300, size).astype(np.float64))
        controller = TokenBucketAdmission(burst=6)
        for flavor in FLAVORS:
            with force_flavor(flavor):
                state = controller.new_state(arrivals[0])
                oneshot = controller.admit_mask(arrivals, slacks, state,
                                                3, 25.0, 200.0)
                state = controller.new_state(arrivals[0])
                pieces = [controller.admit_mask(
                    arrivals[start:start + chunk],
                    slacks[start:start + chunk], state, 3, 25.0, 200.0)
                    for start in range(0, size, chunk)]
            assert np.array_equal(np.concatenate(pieces), oneshot), flavor


class TestFlavorPlumbing:
    def test_active_flavor_known(self):
        assert event_kernels.active_flavor() in (
            "numba", "python", "flat-python")

    def test_describe_nonempty(self):
        assert event_kernels.describe()

    def test_force_numba_without_numba_raises(self):
        if event_kernels.active_flavor() == "numba":
            pytest.skip("numba installed: forcing it is legitimate")
        with pytest.raises(RuntimeError, match="numba"):
            force_flavor("numba")


class TestForcedFallback:
    """Missing numba must degrade to bit-identical event simulations
    (mirrors the core-kernel test)."""

    SNIPPET = """
import sys
{prelude}
from repro.serving import event_kernels
assert event_kernels.active_flavor() == {expected!r}, \\
    event_kernels.active_flavor()
import numpy as np
from repro.serving.events import simulate_batch_queue

rng = np.random.default_rng(7)
ready = np.cumsum(rng.choice([0.0, 1.0, 2.0, 400.0], size=500))
services = rng.integers(1, 60, size=500).astype(np.float64)
starts, completes, depth = simulate_batch_queue(ready, services, 4)
print("CHECK=%r" % ((float(starts.sum()), float(completes.sum()),
                     depth),))
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
            if line.startswith("CHECK="):
                return eval(line.split("=", 1)[1])  # literal tuple
        raise AssertionError("no CHECK line in output: %r"
                             % completed.stdout)

    def _reference(self):
        rng = np.random.default_rng(7)
        ready = np.cumsum(rng.choice([0.0, 1.0, 2.0, 400.0], size=500))
        services = rng.integers(1, 60, size=500).astype(np.float64)
        starts, completes, depth = simulate_batch_queue(ready, services, 4)
        return (float(starts.sum()), float(completes.sum()), depth)

    def test_import_without_numba(self):
        check = self._run_subprocess(self.BLOCK_NUMBA, "python")
        assert check == self._reference()
