"""Admission controllers against the per-query oracle.

Every built-in :class:`~repro.serving.admission.AdmissionController`
decides through one mode of the
:func:`repro.serving.event_kernels.admission_mask` kernel.  The property
here draws a controller with its parameters, an arrival stream with ties
and idle gaps, NaN or finite slacks, 1-4 servers and random chunk cuts,
runs the controller's ``admit_mask`` chunk by chunk with its state
carried across the cuts, and compares the mask and the final state with
one pass of ``queue_oracles.admission_mask`` -- the per-query rules,
which share no code with the kernel.  The oracle's mode and parameters
are spelled out here from each controller's documented meaning (the
token bucket's default rate is ``num_servers / est_query_us``), so a
controller that hands the kernel the wrong rule fails too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import queue_oracles
from repro.serving import event_kernels
from repro.serving.admission import (
    DeadlineAwareAdmission,
    NoAdmission,
    QueueDepthAdmission,
    TokenBucketAdmission,
)
from repro.serving.event_kernels import force_flavor, new_admission_state

FLAVORS = ["python", "flat-python"]
if event_kernels.active_flavor() == "numba":
    FLAVORS.append("numba")

#: Gaps with heavy ties (0) and idle stretches that drain the backlog.
gaps = st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0, 7.5, 60.0,
                                 400.0]), min_size=1, max_size=60)


@st.composite
def controllers(draw):
    """``(controller, spec)``: a built-in and ``spec(num_servers,
    est_query_us) -> (mode, param0, param1, initial_tokens)``."""
    kind = draw(st.sampled_from(["none", "token-bucket", "queue-depth",
                                 "deadline"]))
    if kind == "none":
        return NoAdmission(), lambda servers, est: (
            event_kernels.ADMISSION_MODE_NONE, 0.0, 0.0, 0.0)
    if kind == "token-bucket":
        rate = draw(st.one_of(st.none(), st.floats(1e3, 1e6)))
        burst = draw(st.floats(1.0, 8.0))

        def bucket_spec(servers, est):
            refill = servers / est * 1e6 if rate is None else rate
            return (event_kernels.ADMISSION_MODE_TOKEN_BUCKET, refill,
                    burst, burst)
        return TokenBucketAdmission(rate_qps=rate, burst=burst), bucket_spec
    if kind == "queue-depth":
        depth = draw(st.integers(1, 12))
        return QueueDepthAdmission(max_depth=depth), lambda servers, est: (
            event_kernels.ADMISSION_MODE_QUEUE_DEPTH, float(depth), 0.0,
            0.0)
    margin = draw(st.one_of(st.sampled_from([0.5, 1.0, 1.5, 2.0]),
                            st.floats(0.1, 3.0)))
    return DeadlineAwareAdmission(margin=margin), lambda servers, est: (
        event_kernels.ADMISSION_MODE_DEADLINE, margin, 0.0, 0.0)


@st.composite
def admission_runs(draw):
    arrivals = draw(st.floats(0.0, 1e3)) + np.cumsum(draw(gaps))
    size = arrivals.size
    num_servers = draw(st.integers(1, 4))
    est_query_us = draw(st.sampled_from([0.5, 1.0, 2.5, 10.0, 25.0]))
    est_batch_us = est_query_us * draw(st.integers(1, 8))
    # Slacks on an est_query_us / 8 lattice often equal a predicted
    # latency exactly, which pins the deadline rule's boundary.
    lattice = st.integers(0, 160).map(lambda step: step * est_query_us / 8)
    slack_values = st.one_of(st.just(np.nan), st.floats(0.0, 300.0),
                             lattice, lattice)
    slacks = np.array(draw(st.lists(slack_values, min_size=size,
                                    max_size=size)), dtype=np.float64)
    cuts = sorted(set(draw(st.lists(st.integers(1, size), max_size=5))))
    bounds = [0] + [cut for cut in cuts if cut < size] + [size]
    return arrivals, slacks, bounds, num_servers, est_query_us, \
        est_batch_us


@pytest.mark.parametrize("flavor", FLAVORS)
@settings(max_examples=200, deadline=None)
@given(drawn=controllers(), run=admission_runs())
def test_chunked_admit_mask_matches_per_query_oracle(flavor, drawn, run):
    controller, spec = drawn
    arrivals, slacks, bounds, num_servers, est_query_us, est_batch_us = run
    mode, param0, param1, initial_tokens = spec(num_servers, est_query_us)
    expected_state = new_admission_state(arrivals[0], initial_tokens)
    expected = queue_oracles.admission_mask(
        arrivals, slacks, expected_state, num_servers, est_query_us,
        est_batch_us, mode, param0, param1)

    state = controller.new_state(arrivals[0])
    with force_flavor(flavor):
        pieces = [controller.admit_mask(
            arrivals[start:stop], slacks[start:stop], state, num_servers,
            est_query_us, est_batch_us)
            for start, stop in zip(bounds, bounds[1:])]
    assert np.concatenate(pieces).tolist() == expected.tolist()
    assert np.array_equal(state, expected_state, equal_nan=True)
