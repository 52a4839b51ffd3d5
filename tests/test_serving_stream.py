"""Chunked streaming simulation must be byte-identical to one-shot runs.

``ShardedServingCluster.simulate(stream_chunk=N)`` carries the batcher
carry, admission state and routing across chunk boundaries; the contract
is that the resulting ``ServingReport`` is *identical* -- as a dict, so
every percentile, extra and SLO counter -- to materialising all the
queries up front, for any chunk size, engine, SLO/admission combination
and sharder statefulness.  ``QueryStream`` feeds the same path straight
from an arrival process without ever materialising the full run.
"""

import dataclasses

import numpy as np
import pytest

from repro.serving import (
    BatchingFrontend,
    FixedSLOPolicy,
    MMPPArrivalProcess,
    PoissonArrivalProcess,
    QueryColumns,
    QueryStream,
    ServingQuery,
    ShardedServingCluster,
    TokenBucketAdmission,
    query_columns_from_traces,
    queries_from_traces,
)
from repro.serving.sharding import ReplicatedTableSharder
from repro.traces import make_production_table_traces

NUM_QUERIES = 700
RATE_QPS = 120_000.0


@pytest.fixture(scope="module")
def traces():
    return make_production_table_traces(num_lookups_per_table=640,
                                        num_rows=4000, num_tables=4,
                                        seed=0)


def _arrivals(seed=1):
    return PoissonArrivalProcess(rate_qps=RATE_QPS, seed=seed)


def _report_dict(report):
    return dataclasses.asdict(report)


class TestChunkedVsOneshot:
    @pytest.mark.parametrize("stream_chunk", [64, 97, 256, 10_000])
    def test_chunk_size_invariant(self, traces, stream_chunk):
        columns = query_columns_from_traces(traces, NUM_QUERIES,
                                            _arrivals())
        with ShardedServingCluster(num_nodes=2,
                                   node_system="recnmp-opt") as cluster:
            oneshot = cluster.simulate(columns, engine="event")
            chunked = cluster.simulate(columns, engine="event",
                                       stream_chunk=stream_chunk)
        assert _report_dict(chunked) == _report_dict(oneshot)

    @pytest.mark.parametrize("engine", ["analytic", "event", "event-edf"])
    def test_engines_with_slo_and_admission(self, traces, engine):
        columns = query_columns_from_traces(traces, NUM_QUERIES,
                                            _arrivals())
        slo = FixedSLOPolicy(600.0)
        with ShardedServingCluster(num_nodes=2,
                                   node_system="recnmp-opt") as cluster:
            oneshot = cluster.simulate(columns, engine=engine,
                                       slo_policy=slo,
                                       admission="token-bucket")
            chunked = cluster.simulate(columns, engine=engine,
                                       slo_policy=slo,
                                       admission="token-bucket",
                                       stream_chunk=128)
        assert _report_dict(chunked) == _report_dict(oneshot)

    def test_stateful_sharder_reset_per_run(self, traces):
        # Load-aware replicated routing is stateful: the chunked run
        # must reset and re-route exactly like the one-shot run.
        sharder = ReplicatedTableSharder.from_traces(
            2, traces, policy="load-aware")
        columns = query_columns_from_traces(traces, NUM_QUERIES,
                                            _arrivals())
        with ShardedServingCluster(num_nodes=2, node_system="recnmp-opt",
                                   sharder=sharder) as cluster:
            oneshot = cluster.simulate(columns, engine="event")
            chunked = cluster.simulate(columns, engine="event",
                                       stream_chunk=100)
        assert _report_dict(chunked) == _report_dict(oneshot)

    def test_custom_admission_subclass_object_fallback(self, traces):
        class Tighter(TokenBucketAdmission):
            pass

        columns = query_columns_from_traces(traces, NUM_QUERIES,
                                            _arrivals())
        with ShardedServingCluster(num_nodes=2,
                                   node_system="recnmp-opt") as cluster:
            oneshot = cluster.simulate(columns, engine="event",
                                       admission=Tighter(burst=16))
            chunked = cluster.simulate(columns, engine="event",
                                       admission=Tighter(burst=16),
                                       stream_chunk=128)
        assert _report_dict(chunked) == _report_dict(oneshot)


class TestQueryStream:
    def test_stream_matches_materialized_columns(self, traces):
        columns = query_columns_from_traces(traces, NUM_QUERIES,
                                            _arrivals())
        stream = QueryStream(traces, _arrivals(),
                             num_queries=NUM_QUERIES)
        with ShardedServingCluster(num_nodes=2,
                                   node_system="recnmp-opt") as cluster:
            from_columns = cluster.simulate(columns, engine="event",
                                            stream_chunk=128)
            from_stream = cluster.simulate(stream, engine="event",
                                           stream_chunk=128)
        assert _report_dict(from_stream) == _report_dict(from_columns)

    def test_mmpp_stream_matches_materialized(self, traces):
        def mmpp():
            return MMPPArrivalProcess(rate_high_qps=400_000.0,
                                      rate_low_qps=40_000.0,
                                      mean_high_us=2_000.0,
                                      mean_low_us=8_000.0, seed=3)

        columns = query_columns_from_traces(traces, NUM_QUERIES, mmpp())
        stream = QueryStream(traces, mmpp(), num_queries=NUM_QUERIES)
        with ShardedServingCluster(num_nodes=2,
                                   node_system="recnmp-opt") as cluster:
            from_columns = cluster.simulate(columns, engine="event")
            from_stream = cluster.simulate(stream, engine="event",
                                           stream_chunk=200)
        assert _report_dict(from_stream) == _report_dict(from_columns)

    def test_take_accounting(self, traces):
        stream = QueryStream(traces, _arrivals(), num_queries=100)
        assert stream.remaining == 100
        first = stream.take(64)
        assert len(first) == 64 and stream.remaining == 36
        rest = stream.take(64)
        assert len(rest) == 36 and stream.remaining == 0
        assert len(stream.take(10)) == 0
        ids = first.query_id.tolist() + rest.query_id.tolist()
        assert ids == list(range(100))

    def test_default_chunk_applies_to_streams(self, traces):
        # A QueryStream input without stream_chunk must still stream
        # (and agree with the explicit-chunk run).
        with ShardedServingCluster(num_nodes=2,
                                   node_system="recnmp-opt") as cluster:
            implicit = cluster.simulate(
                QueryStream(traces, _arrivals(), num_queries=300),
                engine="event")
            explicit = cluster.simulate(
                QueryStream(traces, _arrivals(), num_queries=300),
                engine="event", stream_chunk=300)
        assert _report_dict(implicit) == _report_dict(explicit)


class TestValidation:
    def test_chunk_below_max_queries_rejected(self, traces):
        columns = query_columns_from_traces(traces, 64, _arrivals())
        frontend = BatchingFrontend(max_queries=8)
        with ShardedServingCluster(num_nodes=2,
                                   node_system="recnmp-opt") as cluster:
            with pytest.raises(ValueError, match="max_queries"):
                cluster.simulate(columns, frontend=frontend,
                                 stream_chunk=4)

    def test_unbounded_stream_rejected(self, traces):
        stream = QueryStream(traces, _arrivals())
        with ShardedServingCluster(num_nodes=2,
                                   node_system="recnmp-opt") as cluster:
            with pytest.raises(ValueError, match="bounded"):
                cluster.simulate(stream, stream_chunk=64)

    def test_decreasing_arrivals_rejected(self, traces):
        class Backwards:
            def __init__(self):
                self._next = 1000.0

            def take(self, count):
                times = self._next - np.arange(count, dtype=np.float64)
                self._next = float(times[-1]) - 1.0
                return times

        stream = QueryStream(traces, Backwards(), num_queries=128)
        with ShardedServingCluster(num_nodes=2,
                                   node_system="recnmp-opt") as cluster:
            with pytest.raises(ValueError, match="non-decreasing"):
                cluster.simulate(stream, stream_chunk=64)

    @pytest.mark.parametrize("position", [21, 24],
                             ids=["inside-chunk", "chunk-boundary"])
    def test_decreasing_pair_in_later_chunk_rejected(self, traces,
                                                     position):
        """One arrival 1 us before its predecessor, in the third chunk of
        eight or as the first arrival of the fourth, fails the run after
        the sorted chunks before it were served."""
        times = np.arange(32, dtype=np.float64) * 10.0
        times[position] = times[position - 1] - 1.0

        class Replay:
            def __init__(self):
                self._taken = 0

            def take(self, count):
                chunk = times[self._taken:self._taken + count]
                self._taken += count
                return chunk

        stream = QueryStream(traces, Replay(), num_queries=32)
        with ShardedServingCluster(num_nodes=2,
                                   node_system="recnmp-opt") as cluster:
            with pytest.raises(ValueError,
                               match="^streamed arrivals must be "
                                     "non-decreasing$"):
                cluster.simulate(stream, stream_chunk=8)

    @pytest.mark.parametrize("form", ["list", "columns", "stream"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                             ids=["nan", "+inf", "-inf"])
    def test_non_finite_arrivals_rejected(self, traces, form, bad):
        # NaN compares False and -inf < -inf is False, so the ordering
        # check alone would let these through as NaN report means.
        times = np.arange(16, dtype=np.float64) * 10.0
        times[11] = bad
        if form == "list":
            queries = queries_from_traces(traces, 16, list(times))
        elif form == "columns":
            queries = query_columns_from_traces(traces, 16, times)
        else:
            class Replay:
                def __init__(self):
                    self._taken = 0

                def take(self, count):
                    chunk = times[self._taken:self._taken + count]
                    self._taken += count
                    return chunk

            queries = QueryStream(traces, Replay(), num_queries=16)
        with ShardedServingCluster(num_nodes=2,
                                   node_system="recnmp-opt") as cluster:
            with pytest.raises(ValueError, match="query 11 of the input"):
                cluster.simulate(queries, stream_chunk=8)

    @pytest.mark.parametrize("form", ["list", "columns", "stream"])
    def test_query_without_requests_rejected(self, traces, form):
        """A request-less query among eight real ones is named, not
        served and counted; a stream is checked chunk by chunk."""
        queries = queries_from_traces(traces, 8, _arrivals()) + [
            ServingQuery(query_id=70, arrival_us=1e6, requests=[])]
        if form == "columns":
            queries = QueryColumns.from_queries(queries)
        elif form == "stream":
            class Replay(QueryStream):
                def __init__(self, queries):
                    self.queries = queries
                    self.num_queries = len(queries)
                    self._position = 0

                def take(self, count):
                    chunk = self.queries[self._position:
                                         self._position + count]
                    self._position += len(chunk)
                    return QueryColumns.from_queries(chunk)

            queries = Replay(queries)
        with ShardedServingCluster(num_nodes=2,
                                   node_system="recnmp-opt") as cluster:
            with pytest.raises(ValueError,
                               match="query_id 70 has no SLS requests"):
                cluster.simulate(queries, stream_chunk=8)

    def test_lone_query_without_requests_rejected(self):
        with ShardedServingCluster(num_nodes=2,
                                   node_system="recnmp-opt") as cluster:
            with pytest.raises(ValueError,
                               match="query_id 7 has no SLS requests"):
                cluster.simulate([ServingQuery(query_id=7, arrival_us=0.0,
                                               requests=[])])

    def test_first_query_without_requests_is_named(self, traces):
        """The first request-less query in input order is named, not the
        first to arrive."""
        queries = queries_from_traces(traces, 8, _arrivals()) + [
            ServingQuery(query_id=71, arrival_us=2e6, requests=[]),
            ServingQuery(query_id=72, arrival_us=1e6, requests=[])]
        with ShardedServingCluster(num_nodes=2,
                                   node_system="recnmp-opt") as cluster:
            with pytest.raises(ValueError,
                               match="query_id 71 has no SLS requests"):
                cluster.simulate(queries)

    @pytest.mark.parametrize("form", ["list", "columns"])
    def test_query_without_requests_rejected_before_any_stage(self, traces,
                                                              form):
        """A materialised input is checked whole: no batch of it is
        simulated before the error."""
        queries = queries_from_traces(traces, 8, _arrivals()) + [
            ServingQuery(query_id=70, arrival_us=1e6, requests=[])]
        if form == "columns":
            queries = QueryColumns.from_queries(queries)
        with ShardedServingCluster(num_nodes=2,
                                   node_system="recnmp-opt") as cluster:
            with pytest.raises(ValueError, match="query_id 70"):
                cluster.simulate(queries, stream_chunk=8)
            assert cluster.service_stats()["exact_simulations"] == 0
            assert cluster.service_stats()["cache"]["misses"] == 0

    def test_all_shed_raises(self, traces):
        class ShedAll(TokenBucketAdmission):
            def admit_mask(self, arrivals_us, *_):
                return np.zeros(arrivals_us.shape, dtype=bool)

        columns = query_columns_from_traces(traces, 64, _arrivals())
        with ShardedServingCluster(num_nodes=2,
                                   node_system="recnmp-opt") as cluster:
            with pytest.raises(ValueError, match="shed every query"):
                cluster.simulate(columns, admission=ShedAll(),
                                 stream_chunk=64)

    def test_mask_of_wrong_length_raises(self, traces):
        class Short(TokenBucketAdmission):
            def admit_mask(self, arrivals_us, *_):
                return np.ones(arrivals_us.size - 1, dtype=bool)

        columns = query_columns_from_traces(traces, 64, _arrivals())
        with ShardedServingCluster(num_nodes=2,
                                   node_system="recnmp-opt") as cluster:
            with pytest.raises(ValueError, match="31 flags for 32"):
                cluster.simulate(columns, admission=Short(),
                                 stream_chunk=32)
