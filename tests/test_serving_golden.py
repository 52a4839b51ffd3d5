"""Golden serving reports: every ``simulate`` input form, one spec.

``ShardedServingCluster.simulate`` once ran two pipelines, one over
``ServingQuery`` objects and one over query columns.  The fixture
``golden/serving_reports.json`` holds ``dataclasses.asdict(report)`` of
the object pipeline for every configuration below -- engines x admission
(built-ins plus a custom subclass) x SLO policy (including a subclass
that overrides ``slack_column``) x stateless/stateful sharders --
recorded with fresh query objects per run before that pipeline was
deleted.  Every input form (a query list or ``QueryColumns``, one shot
or chunked) must reproduce it byte for byte, on every kernel flavor, and
again with the reference loops swapped in: the ``heapq`` dispatch queues
and the per-query admission rules of ``queue_oracles`` in place of the
event kernels.  (The fixture predates the column-only policy interfaces:
the custom controller and the slack subclass then decided per query
object, and their column rewrites below reproduce those decisions.)
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import queue_oracles
from repro.serving import (
    BatchingFrontend,
    DeadlineAwareAdmission,
    FixedSLOPolicy,
    NoAdmission,
    PerTableSLOPolicy,
    PoissonArrivalProcess,
    QueryColumns,
    QueueDepthAdmission,
    ShardedServingCluster,
    TokenBucketAdmission,
    queries_from_traces,
    query_columns_from_traces,
)
from repro.serving import event_kernels
from repro.serving.sharding import ReplicatedTableSharder
from repro.traces import make_production_table_traces

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" \
    / "serving_reports.json"

NUM_ROWS = 512
VECTOR_BYTES = 64
NUM_QUERIES = 40
#: Offered load far beyond what two recnmp-base nodes serve, so every
#: controller sheds and the tight SLO misses deadlines.
RATE_QPS = 20_000_000.0
SLO_US = 4.0
#: Chunk size of the chunked input forms (>= the frontend's max_queries
#: and coprime with it, so batches straddle chunk boundaries).
STREAM_CHUNK = 7

TRACES = make_production_table_traces(
    num_lookups_per_table=256, num_rows=NUM_ROWS, num_tables=3, seed=0)


def address_of(table_id, row):
    return (table_id * NUM_ROWS + row) * VECTOR_BYTES


def _arrivals():
    return PoissonArrivalProcess(rate_qps=RATE_QPS, seed=5)


def fresh_queries():
    """A new list of query objects (never reused across runs)."""
    return queries_from_traces(TRACES, NUM_QUERIES, _arrivals(),
                               batch_size=4, pooling_factor=8)


def fresh_columns():
    """The same stream built straight as columns."""
    return query_columns_from_traces(TRACES, NUM_QUERIES, _arrivals(),
                                     batch_size=4, pooling_factor=8)


def frontend():
    return BatchingFrontend(max_queries=4, max_delay_us=20.0)


class DeadlineFirstDepthAdmission(QueueDepthAdmission):
    """Custom subclass: deadline-carrying queries get half the depth."""

    name = "deadline-first-depth"

    def admit_mask(self, arrivals_us, slacks_us, state, num_servers,
                   est_query_us, est_batch_us):
        def decide(position, now_us, wait_us):
            depth = wait_us * num_servers / est_query_us
            limit = self.max_depth
            if not np.isnan(slacks_us[position]):
                limit = self.max_depth / 2
            return depth < limit

        return queue_oracles.fluid_admission(arrivals_us, state,
                                             num_servers, est_query_us,
                                             decide)


class OddQueriesSlackSLO(FixedSLOPolicy):
    """Overrides ``slack_column``: odd query ids get twice the budget."""

    def slack_column(self, columns):
        return self.slo_us * np.where(columns.query_id % 2, 2.0, 1.0)


ENGINES = ("analytic", "event", "event-edf")

#: Fresh controller per run (controllers carry per-run state).
ADMISSIONS = {
    "off": lambda: None,
    "none": NoAdmission,
    "token-bucket": lambda: TokenBucketAdmission(burst=4),
    "queue-depth": lambda: QueueDepthAdmission(max_depth=6),
    "deadline": DeadlineAwareAdmission,
    "custom": lambda: DeadlineFirstDepthAdmission(max_depth=6),
}

SLO_POLICIES = {
    "off": lambda: None,
    "fixed": lambda: FixedSLOPolicy(SLO_US),
    "per-table": lambda: PerTableSLOPolicy(SLO_US / 4, SLO_US / 4),
    "slack-subclass": lambda: OddQueriesSlackSLO(SLO_US),
}

SHARDERS = ("round-robin", "replicated")

CONFIGS = ["%s/%s/%s/%s" % config
           for config in [(engine, admission, slo, sharder)
                          for sharder in SHARDERS
                          for engine in ENGINES
                          for admission in ADMISSIONS
                          for slo in SLO_POLICIES]]


def build_cluster(sharder_name):
    sharder = None
    if sharder_name == "replicated":
        sharder = ReplicatedTableSharder.from_traces(
            2, TRACES, policy="load-aware", max_replicas=2,
            hot_fraction=0.1)
    return ShardedServingCluster(
        num_nodes=2, node_system="recnmp-base", sharder=sharder,
        address_of=address_of, vector_size_bytes=VECTOR_BYTES)


def run_config(cluster, config, queries, stream_chunk=None, **kwargs):
    engine, admission, slo, _ = config.split("/")
    return cluster.simulate(
        queries, frontend=frontend(), engine=engine,
        slo_policy=SLO_POLICIES[slo](), admission=ADMISSIONS[admission](),
        stream_chunk=stream_chunk, **kwargs)


def canonical(report):
    """Byte-exact comparison form of a report (floats repr round-trip)."""
    return json.dumps(dataclasses.asdict(report), sort_keys=True)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def clusters():
    built = {name: build_cluster(name) for name in SHARDERS}
    yield built
    for cluster in built.values():
        cluster.close()


INPUT_FORMS = {
    "list": (fresh_queries, None),
    "list-chunked": (fresh_queries, STREAM_CHUNK),
    "columns": (fresh_columns, None),
    "columns-chunked": (fresh_columns, STREAM_CHUNK),
}


def test_golden_covers_the_matrix(golden):
    assert sorted(golden) == sorted(CONFIGS)


@pytest.mark.parametrize("form", sorted(INPUT_FORMS))
@pytest.mark.parametrize("config", CONFIGS)
def test_report_matches_object_path_golden(golden, clusters, config, form):
    make_input, stream_chunk = INPUT_FORMS[form]
    cluster = clusters[config.rsplit("/", 1)[1]]
    report = run_config(cluster, config, make_input(), stream_chunk)
    assert canonical(report) == json.dumps(golden[config], sort_keys=True)


@pytest.fixture
def reference_loops(monkeypatch):
    """Run the pipeline on the reference loops; returns per-loop call
    counts so a test can check that the substitutes actually ran."""
    calls = {"fifo": 0, "edf": 0, "admission": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(event_kernels, "fifo_queue_times",
                        counted("fifo", queue_oracles.fifo_queue_times))
    monkeypatch.setattr(event_kernels, "edf_queue_times",
                        counted("edf", queue_oracles.edf_queue_times))
    monkeypatch.setattr(event_kernels, "admission_mask",
                        counted("admission", queue_oracles.admission_mask))
    return calls


@pytest.mark.parametrize("form", sorted(INPUT_FORMS))
@pytest.mark.parametrize("config", CONFIGS)
def test_report_matches_golden_on_reference_loops(golden, clusters,
                                                  reference_loops, config,
                                                  form):
    make_input, stream_chunk = INPUT_FORMS[form]
    cluster = clusters[config.rsplit("/", 1)[1]]
    report = run_config(cluster, config, make_input(), stream_chunk)
    assert canonical(report) == json.dumps(golden[config], sort_keys=True)


def test_reference_loops_replace_the_kernels(clusters, reference_loops):
    """The substitution is live: an EDF run with deadline admission goes
    through the ``heapq`` EDF loop and the per-query admission rules.
    (The matrix's clusters have one frontend, where FIFO is a closed
    form, so the FIFO oracle is checked with two.)"""
    run_config(clusters["round-robin"], "event-edf/deadline/fixed/"
               "round-robin", fresh_queries())
    assert reference_loops["edf"] == 1
    assert reference_loops["admission"] == 1
    two_frontends = ShardedServingCluster(
        num_nodes=2, node_system="recnmp-base", address_of=address_of,
        vector_size_bytes=VECTOR_BYTES, num_frontends=2)
    with two_frontends:
        two_frontends.simulate(fresh_queries(), frontend=frontend(),
                               engine="event")
    assert reference_loops["fifo"] == 1


def test_matrix_exercises_shedding_and_misses(golden):
    """The fixture is only a spec if the branches it pins actually fire."""
    slo = [golden[config]["extras"]["slo"] for config in CONFIGS
           if "slo" in golden[config]["extras"]]
    assert any(record["num_shed"] > 0 for record in slo)
    assert any(record["attainment"] is not None
               and 0.0 < record["attainment"] < 1.0 for record in slo)


class TestSlackOverride:
    """A policy subclass that overrides ``slack_column`` sets the
    deadlines of every run, chunked or not."""

    def test_subclass_deadlines_follow_slack_column(self):
        columns = fresh_columns()
        OddQueriesSlackSLO(SLO_US).assign_deadlines_columns(columns)
        slack = np.where(columns.query_id % 2, 2 * SLO_US, SLO_US)
        assert np.array_equal(columns.deadline_us,
                              columns.arrival_us + slack)

    @pytest.mark.parametrize("stream_chunk", [None, STREAM_CHUNK])
    def test_chunking_does_not_change_attainment(self, clusters,
                                                 stream_chunk):
        config = "event/off/slack-subclass/round-robin"
        oneshot = run_config(clusters["round-robin"], config,
                             fresh_queries())
        run = run_config(clusters["round-robin"], config, fresh_queries(),
                         stream_chunk)
        assert run.extras["slo"] == oneshot.extras["slo"]


class TestInputNotMutated:
    """``simulate`` never writes deadlines into its input; deadlines set
    by hand are read, and honoured, through ``QueryColumns.from_queries``."""

    @pytest.mark.parametrize("stream_chunk", [None, STREAM_CHUNK])
    def test_query_objects_keep_their_deadlines(self, clusters,
                                                stream_chunk):
        queries = fresh_queries()
        cluster = clusters["round-robin"]
        cluster.simulate(queries, frontend=frontend(), engine="event",
                         slo_policy=SLO_US, stream_chunk=stream_chunk)
        assert all(query.deadline_us is None for query in queries)
        rerun = cluster.simulate(queries, frontend=frontend(),
                                 engine="event", stream_chunk=stream_chunk)
        assert "slo" not in rerun.extras

    @pytest.mark.parametrize("stream_chunk", [None, STREAM_CHUNK])
    def test_columns_keep_their_deadlines(self, clusters, stream_chunk):
        columns = fresh_columns()
        clusters["round-robin"].simulate(
            columns, frontend=frontend(), engine="event",
            slo_policy=SLO_US, stream_chunk=stream_chunk)
        assert np.isnan(columns.deadline_us).all()

    @pytest.mark.parametrize("stream_chunk", [None, STREAM_CHUNK])
    def test_hand_set_deadlines_are_honoured(self, clusters, stream_chunk):
        queries = fresh_queries()
        for query in queries:
            query.deadline_us = query.arrival_us + SLO_US
        cluster = clusters["round-robin"]
        by_hand = cluster.simulate(queries, frontend=frontend(),
                                   engine="event", stream_chunk=stream_chunk)
        by_policy = cluster.simulate(fresh_queries(), frontend=frontend(),
                                     engine="event", slo_policy=SLO_US)
        assert by_hand.extras["slo"]["attainment"] \
            == by_policy.extras["slo"]["attainment"]
        assert [query.deadline_us for query in queries] \
            == [query.arrival_us + SLO_US for query in queries]
        columns = QueryColumns.from_queries(queries)
        assert np.array_equal(columns.deadline_us,
                              columns.arrival_us + SLO_US)
