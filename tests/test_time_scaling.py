"""Time-scaling property of batching and the serving engines.

Multiplying every time of a run by ``k`` -- arrivals, deadlines, the
batcher's ``max_delay_us`` and the batch service times -- changes only
the unit of time.  For a power of two ``k`` no floating-point rounding
changes either, so the run must come out the same exactly: the same
batch boundaries, triggers, utilisation and SLO counts, every time in
microseconds multiplied by ``k`` and every rate divided by ``k``.  The
property holds for any correct queue and batcher, so it checks them
without a reference implementation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import QueryColumns, form_batch_columns, resolve_engine

SCALES = (0.5, 2.0, 4.0)


def _times(max_us):
    """0 or a time far above the smallest normal float: halved, and
    averaged over up to 60 queries, it stays normal (a subnormal loses
    bits, so scaling it is not exact)."""
    return st.one_of(st.just(0.0), st.floats(1e-290, max_us))


@st.composite
def runs(draw):
    """Arrivals on a 12.5 us lattice (ties and exact deadline hits),
    absolute deadlines with NaN for none, batcher triggers and one
    service time per query (enough for any batching).  Drawn slacks and
    delays come from :func:`_times`."""
    ticks = sorted(draw(st.lists(st.integers(0, 400), min_size=1,
                                 max_size=60)))
    arrivals = 12.5 * np.array(ticks, dtype=np.float64)
    size = arrivals.size
    slacks = draw(st.lists(
        st.one_of(st.just(math.nan), _times(2_000.0)),
        min_size=size, max_size=size))
    max_queries = draw(st.integers(1, 8))
    max_delay_us = draw(st.one_of(st.sampled_from([0.0, 12.5, 50.0]),
                                  _times(500.0)))
    services = draw(st.lists(st.floats(0.5, 400.0), min_size=size,
                             max_size=size))
    return (arrivals, arrivals + np.array(slacks), max_queries,
            max_delay_us, np.array(services))


def _serve(run, engine, num_servers, k):
    """Batches and report of ``run`` with every time multiplied by k."""
    arrivals, deadlines, max_queries, max_delay_us, services = run
    ids = np.arange(arrivals.size)
    ones = np.ones(arrivals.size, dtype=np.int64)
    columns = QueryColumns(ids, arrivals * k, deadlines * k, ones, ones,
                           ones, ids, provider=None)
    batches, _ = form_batch_columns(columns, max_queries, max_delay_us * k)
    report = resolve_engine(engine).summarize(
        "unit", batches, services[:len(batches)] * k,
        num_servers=num_servers)
    return batches, report


def _scaled(value, key, k):
    """What ``value`` under ``key`` must read after scaling time by k."""
    if isinstance(value, dict):
        return {name: _scaled(item, name, k) for name, item in value.items()}
    if key.endswith("_us"):
        return value * k
    if key.endswith("_qps"):
        return value / k
    return value


def _assert_equal(actual, expected, path="report"):
    """Exact equality, recursing into dicts; NaN equals NaN."""
    if isinstance(expected, dict):
        assert actual.keys() == expected.keys(), path
        for name in expected:
            _assert_equal(actual[name], expected[name],
                          "%s.%s" % (path, name))
    elif isinstance(expected, float) and math.isnan(expected):
        assert math.isnan(actual), path
    else:
        assert actual == expected, (path, actual, expected)


@pytest.mark.parametrize("k", SCALES)
@pytest.mark.parametrize("num_servers", [1, 3])
@pytest.mark.parametrize("engine", ["analytic", "event", "event-edf"])
@settings(max_examples=40, deadline=None)
@given(run=runs())
def test_scaling_time_scales_latencies_and_rates(engine, num_servers, k,
                                                 run):
    base_batches, base = _serve(run, engine, num_servers, 1.0)
    batches, report = _serve(run, engine, num_servers, k)
    assert batches.starts.tolist() == base_batches.starts.tolist()
    assert batches.triggers.tolist() == base_batches.triggers.tolist()
    assert batches.formed_us.tolist() == \
        (base_batches.formed_us * k).tolist()
    _assert_equal(report.as_dict(), _scaled(base.as_dict(), "", k))
