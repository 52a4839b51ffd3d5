"""Property tests of the array serving hot path against loop references.

The column batcher (:func:`form_batch_columns`) and the grouped
interpolating service model answer whole chunks with array passes.  The
references here share no code with them: the per-query batching loop
(``queue_oracles.form_batches``) and a per-batch interpolation loop
written out below.  The pipeline properties run
``ShardedServingCluster.simulate(trace=Tracer())`` end to end and check
invariants no implementation detail can satisfy by accident:
conservation, per-query causality and chunk-size invariance.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import queue_oracles
from repro.obs import Tracer
from repro.perf.service_model import InterpolatingServiceModel
from repro.serving import (
    BatchingFrontend,
    DeadlineAwareAdmission,
    NoAdmission,
    QueryColumns,
    QueueDepthAdmission,
    ServingQuery,
    ShardedServingCluster,
    TokenBucketAdmission,
    form_batch_columns,
    queries_from_traces,
    query_columns_from_traces,
)
from repro.serving.query_columns import BatchColumns
from repro.traces import make_production_table_traces

BATCH_SIZES = (1, 2, 4)
NUM_TABLES = 2
TRACES = make_production_table_traces(
    num_lookups_per_table=400, num_rows=512, num_tables=NUM_TABLES, seed=0)


def _columns(arrivals, lookups=None, poolings=None, num_requests=None):
    size = len(arrivals)
    ones = np.ones(size, dtype=np.int64)
    return QueryColumns(
        np.arange(size), np.asarray(arrivals, dtype=np.float64),
        np.full(size, np.nan), ones if lookups is None else lookups,
        ones if poolings is None else poolings,
        ones if num_requests is None else num_requests,
        np.arange(size), provider=None)


# --------------------------------------------------------------------- #
# Batch forming                                                         #
# --------------------------------------------------------------------- #
# Arrivals on a 12.5 us lattice tie with each other and land exactly on
# batch deadlines (open + max_delay) for the lattice-multiple delays.
arrival_lists = st.lists(st.integers(0, 80), min_size=1, max_size=80).map(
    lambda ticks: [12.5 * tick for tick in sorted(ticks)])
max_delays = st.one_of(st.sampled_from([0.0, 12.5, 37.5, 100.0, 1e9]),
                       st.floats(0.0, 300.0))
max_queries = st.integers(1, 9)


def _object_batches(arrivals, max_queries, max_delay_us):
    """(starts, formed_us, triggers) from the per-query oracle loop."""
    queries = [ServingQuery(query_id=index, arrival_us=arrival)
               for index, arrival in enumerate(arrivals)]
    batches = queue_oracles.form_batches(queries, max_queries,
                                         max_delay_us)
    starts = [batch.queries[0].query_id for batch in batches]
    return (starts, [batch.formed_us for batch in batches],
            [int(batch.trigger == "deadline") for batch in batches])


def _column_batches(batch_columns, offset=0):
    return ((batch_columns.starts + offset).tolist(),
            batch_columns.formed_us.tolist(),
            batch_columns.triggers.tolist())


def _chunked_batches(columns, bounds, max_queries, max_delay_us):
    """(starts, formed_us, triggers) of a run cut at ``bounds``, each
    chunk batched with the previous chunk's carry prepended."""
    starts, formed_us, triggers = [], [], []
    carry = None
    for index, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        piece = columns.slice(start, stop)
        offset = start
        if carry is not None:
            offset -= len(carry)
            piece = QueryColumns.concat([carry, piece])
        formed, carry = form_batch_columns(
            piece, max_queries, max_delay_us,
            final=index == len(bounds) - 2)
        part = _column_batches(formed, offset)
        starts += part[0]
        formed_us += part[1]
        triggers += part[2]
    assert carry is None
    return starts, formed_us, triggers


@settings(max_examples=300, deadline=None)
@given(arrival_lists, max_queries, max_delays)
def test_form_batch_columns_matches_object_frontend(arrivals, max_queries,
                                                    max_delay_us):
    formed, carry = form_batch_columns(_columns(arrivals), max_queries,
                                       max_delay_us)
    assert carry is None
    assert _column_batches(formed) == _object_batches(
        arrivals, max_queries, max_delay_us)


@st.composite
def chunked_arrivals(draw):
    arrivals = draw(arrival_lists)
    cuts = draw(st.lists(st.integers(1, max(len(arrivals) - 1, 1)),
                         max_size=6))
    cuts = sorted(set(cut for cut in cuts if cut < len(arrivals)))
    return arrivals, [0] + cuts + [len(arrivals)]


@settings(max_examples=300, deadline=None)
@given(chunked_arrivals(), max_queries, max_delays)
def test_chunked_batching_with_carry_matches_oneshot(chunks, max_queries,
                                                     max_delay_us):
    arrivals, bounds = chunks
    columns = _columns(arrivals)
    oneshot, _ = form_batch_columns(columns, max_queries, max_delay_us)
    assert _chunked_batches(columns, bounds, max_queries, max_delay_us) \
        == _column_batches(oneshot)


@st.composite
def long_full_runs(draw):
    """Dense arrivals broken by a few large gaps, then a short tail.

    Steps of 0, 0.5 or 1 us fill most batches long before a 12.5 us or
    longer deadline, so the batcher meets long runs of full batches.  A
    large gap makes the positions just before it partial, and a run
    coming from an earlier landing meets one of them partway along its
    progression.  Gaps of half or exactly one deadline keep deadline
    ties in play; a zero delay makes every batch partial.  The tail
    after the last gap is shorter than ``max_queries``.  Runs hold more
    than 1,024 queries and are cut at most twice, so the one-shot run
    and most chunks are long enough for the run walk.
    """
    max_queries = draw(st.integers(1, 9))
    max_delay_us = draw(st.sampled_from([0.0, 12.5, 37.5, 100.0]))
    size = draw(st.integers(1_100, 4_000))
    tail = draw(st.integers(0, max_queries - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    steps = 0.5 * rng.integers(0, 3, size + tail)
    steps[0] = 0.0
    long_gaps = st.sampled_from([0.5 * max_delay_us, max_delay_us, 300.0])
    for position in draw(st.lists(st.integers(1, size - 1), max_size=8)):
        steps[position] += draw(long_gaps)
    if tail:
        steps[size] += 300.0
    cuts = draw(st.lists(st.integers(1, size + tail - 1), max_size=2))
    bounds = [0] + sorted(set(cuts)) + [size + tail]
    return np.cumsum(steps).tolist(), bounds, max_queries, max_delay_us


@settings(max_examples=90, deadline=None)
@given(long_full_runs())
def test_long_full_runs_match_object_frontend(drawn):
    arrivals, bounds, max_queries, max_delay_us = drawn
    expected = _object_batches(arrivals, max_queries, max_delay_us)
    columns = _columns(arrivals)
    oneshot, carry = form_batch_columns(columns, max_queries, max_delay_us)
    assert carry is None
    assert _column_batches(oneshot) == expected
    assert _chunked_batches(columns, bounds, max_queries,
                            max_delay_us) == expected


# --------------------------------------------------------------------- #
# Interpolating service model                                           #
# --------------------------------------------------------------------- #
def _closed_form_us(size, total_poolings, total_lookups):
    """Service time as a (non-linear in batch size) closed form."""
    return (2.0 + 0.37 * total_poolings + 0.011 * total_lookups
            + 3.0 * math.sqrt(size))


class ClosedFormCluster:
    """Cluster stand-in: closed-form service times, logged calls."""

    def __init__(self):
        self.calibrated = []

    def service_time_us(self, batch):
        requests = batch.requests()
        poolings = sum(len(request.lengths) for request in requests)
        lookups = sum(request.total_lookups for request in requests)
        shape = (poolings // len(requests), lookups // poolings)
        if not self.calibrated or self.calibrated[-1] != shape:
            self.calibrated.append(shape)
        return _closed_form_us(batch.size, poolings, lookups)


def _reference_pf_rows(observed, pooling_factors):
    if pooling_factors is None:
        return [observed]
    below = [p for p in pooling_factors if p <= observed]
    above = [p for p in pooling_factors if p >= observed]
    if not below:
        return [above[0]]
    if not above:
        return [below[-1]]
    return sorted({below[-1], above[0]})


def _reference_service_times(batches, pooling_factors):
    """Per-batch loop: (service times, calibrated rows, extrapolated).

    ``batches`` are the drawn batches, lists of ``(num_requests,
    poolings, lookups)`` query shapes."""
    rows, calibrated, out, extrapolated = {}, [], [], 0

    def row(poolings, pf):
        if (poolings, pf) not in rows:
            calibrated.append((poolings, pf))
            totals = [size * poolings * NUM_TABLES for size in BATCH_SIZES]
            rows[(poolings, pf)] = (
                np.array(totals, dtype=np.float64),
                np.array([_closed_form_us(size, total, total * pf)
                          for size, total in zip(BATCH_SIZES, totals)]))
        return rows[(poolings, pf)]

    for batch in batches:
        num_requests, total, lookups = (sum(column)
                                        for column in zip(*batch))
        poolings = max(int(round(total / num_requests)), 1)
        observed = max(int(round(lookups / total)), 1)
        pf_rows = _reference_pf_rows(observed, pooling_factors)
        values, beyond = [], False
        for pf in pf_rows:
            xs, ys = row(poolings, pf)
            if total > xs[-1]:
                beyond = True
                slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
                values.append(float(ys[-1] + slope * (total - xs[-1])))
            else:
                values.append(float(np.interp(float(total), xs, ys)))
        if len(values) == 2:
            weight = (observed - pf_rows[0]) / (pf_rows[1] - pf_rows[0])
            values = [values[0] + weight * (values[1] - values[0])]
        out.append(values[0])
        extrapolated += beyond
    return out, calibrated, extrapolated


@st.composite
def query_shapes(draw):
    """One query: (num_requests, poolings, lookups)."""
    num_requests = draw(st.integers(1, 3))
    poolings = draw(st.integers(num_requests, 3 * num_requests))
    lookups = draw(st.integers(poolings, 24 * poolings))
    return num_requests, poolings, lookups


batch_lists = st.lists(st.lists(query_shapes(), min_size=1, max_size=6),
                       min_size=1, max_size=12)


def _batch_columns(batches):
    queries = [query for batch in batches for query in batch]
    num_requests, poolings, lookups = (
        np.array(column, dtype=np.int64) for column in zip(*queries))
    starts = np.cumsum([0] + [len(batch) for batch in batches[:-1]])
    zeros = np.zeros(len(batches))
    return BatchColumns(
        _columns(np.zeros(len(queries)), lookups, poolings, num_requests),
        starts, zeros, zeros, zeros)


@pytest.mark.parametrize("pooling_factors", [None, (4, 9, 16)])
@settings(max_examples=60, deadline=None)
@given(batches=batch_lists)
def test_interp_matches_per_batch_reference(pooling_factors, batches):
    expected, calibrated, extrapolated = _reference_service_times(
        batches, pooling_factors)
    model = InterpolatingServiceModel(TRACES, batch_sizes=BATCH_SIZES,
                                      pooling_factors=pooling_factors)
    cluster = ClosedFormCluster()
    assert model.service_times_us(cluster, _batch_columns(batches)) \
        == expected
    assert cluster.calibrated == calibrated
    stats = model.stats()
    assert stats["interpolated_calls"] == len(batches)
    assert stats["extrapolated_batches"] == extrapolated
    assert stats["exact_calls"] == len(calibrated) * len(BATCH_SIZES)


def test_zero_request_batch_columns_raise_value_error():
    batch_columns = _batch_columns([[(2, 4, 40)], [(1, 2, 20)]])
    batch_columns.columns.num_requests[1] = 0
    model = InterpolatingServiceModel(TRACES, batch_sizes=BATCH_SIZES)
    with pytest.raises(ValueError, match="no SLS requests"):
        model.service_times_us(ClosedFormCluster(), batch_columns)


# --------------------------------------------------------------------- #
# The serving pipeline end to end                                       #
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def pipeline():
    """A real cluster and an interpolating model calibrated on first use
    (one query shape, so later examples never cycle-simulate)."""
    cluster = ShardedServingCluster(num_nodes=2, node_system="recnmp-base")
    model = InterpolatingServiceModel(TRACES, batch_sizes=(1, 2, 4, 8))
    yield cluster, model
    cluster.close()


#: Fresh controller per run, tight enough to shed at these loads.
PIPELINE_ADMISSIONS = {
    "off": lambda: None,
    "none": NoAdmission,
    "token-bucket": lambda: TokenBucketAdmission(burst=8),
    "queue-depth": lambda: QueueDepthAdmission(max_depth=8),
    "deadline": DeadlineAwareAdmission,
}

pipeline_runs = st.fixed_dictionaries({
    # Inter-arrival gaps on a 0.05 us lattice: ties, bursts far above
    # capacity, and the odd idle stretch.
    "gaps": st.integers(1, 60).flatmap(lambda size: st.lists(
        st.sampled_from([0, 0, 1, 2, 40]), min_size=size, max_size=size)),
    "max_queries": st.integers(1, 6),
    "max_delay_us": st.sampled_from([0.0, 0.1, 0.4, 5.0]),
    "engine": st.sampled_from(["analytic", "event", "event-edf"]),
    "admission": st.sampled_from(sorted(PIPELINE_ADMISSIONS)),
    "slo_us": st.sampled_from([None, 4.0, 15.0]),
    "as_list": st.booleans(),
    "chunk_extra": st.integers(0, 12),
})


def _traced_run(pipeline, run, stream_chunk=None):
    cluster, model = pipeline
    arrivals = 0.05 * np.cumsum(run["gaps"])
    make = queries_from_traces if run["as_list"] \
        else query_columns_from_traces
    queries = make(TRACES, len(arrivals), arrivals, batch_size=8,
                   pooling_factor=16)
    tracer = Tracer()
    try:
        report = cluster.simulate(
            queries, frontend=BatchingFrontend(run["max_queries"],
                                               run["max_delay_us"]),
            engine=run["engine"], service_model=model,
            slo_policy=run["slo_us"],
            admission=PIPELINE_ADMISSIONS[run["admission"]](),
            stream_chunk=stream_chunk, trace=tracer)
    except ValueError as error:
        if "shed every query" not in str(error):
            raise
        reject()
    return report, tracer


@settings(max_examples=120, deadline=None)
@given(run=pipeline_runs)
def test_pipeline_conservation_causality_and_chunking(pipeline, run):
    report, tracer = _traced_run(pipeline, run)
    capture = tracer.capture
    offered = len(run["gaps"])
    admitted = capture.query_id.tolist()
    shed = tracer.shed_query_id.tolist()
    # Conservation: admitted + shed = offered, each query exactly once,
    # and every admitted query in exactly one batch.
    assert len(admitted) + len(shed) == offered
    assert sorted(admitted + shed) == list(range(offered))
    assert int(capture.batch_sizes.sum()) == len(admitted)
    assert (capture.batch_sizes > 0).all()
    assert report.num_queries == len(admitted)
    slo = report.extras.get("slo")
    if slo is not None:
        assert slo["num_offered"] == offered
        assert slo["num_admitted"] + slo["num_shed"] == offered
        assert slo["num_shed"] == len(shed)
    # Causality along every query's life.
    formed = capture.per_query(capture.batch_ready_us)
    start = capture.per_query(capture.batch_start_us)
    complete = capture.per_query(capture.batch_complete_us)
    assert (capture.query_arrival_us <= formed).all()
    assert (formed <= start).all()
    assert (start <= complete).all()
    # Chunk-size invariance.
    chunked, _ = _traced_run(pipeline, run,
                             run["max_queries"] + run["chunk_extra"])
    assert dataclasses.asdict(chunked) == dataclasses.asdict(report)
