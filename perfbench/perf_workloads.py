"""The benchmark's workloads: seeded inputs, one timed repetition, checks.

Every workload drives the program through its public entry points only
(:meth:`ShardedServingCluster.simulate` or :meth:`EmbeddingSystem.run`),
in one process on the default serial backend.  Load is offline: a fixed,
seeded arrival schedule on the simulated clock, run as fast as the host
allows.  A workload object knows how to

* ``setup(seed, work_dir)`` -- build traces and the cluster or system,
  plus lazy set-up a user pays once per process (interp calibration);
* ``inputs(state)`` -- count the generated work (outside any timer);
* ``before_rep(state)`` / ``run(state)`` -- reset what a cold repetition
  needs reset (untimed), then run one repetition (timed);
* ``check(state, outcome)`` -- invariants that hold on any seed;
* ``digest(outcome)`` -- a content hash of the program's output, pinned
  for the default seed in ``pins.json``;
* ``units(state, outcome)`` -- work counts for the per-unit metrics.
"""

import dataclasses
import hashlib
import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from typing import Optional

from repro.perf.baseline_cache import clear_baseline_cache
from repro.perf.service_model import InterpolatingServiceModel
from repro.serving import (
    BatchingFrontend,
    FixedSLOPolicy,
    MMPPArrivalProcess,
    PoissonArrivalProcess,
    QueryStream,
    ShardedServingCluster,
)
from repro.systems import build_system
from repro.traces import make_production_table_traces
from repro.traces.synthetic import batched_requests_from_trace

#: Scaled-down embedding layout shared by every workload (the same table
#: size and vector width the repository's figure benchmarks use).
NUM_ROWS = 20_000
VECTOR_BYTES = 128

#: Seed whose output digests are pinned in ``pins.json``.
DEFAULT_SEED = 0


def address_of(table_id, row):
    """Contiguous row-major placement of the embedding tables."""
    return table_id * NUM_ROWS * VECTOR_BYTES + row * VECTOR_BYTES


def _canonical(value):
    """JSON-ready copy of a result tree (numpy scalars unwrapped)."""
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if hasattr(value, "item") and callable(value.item):
        return value.item()
    return value


def content_digest(tree):
    """sha256 of a result tree, floats written with every digit."""
    text = json.dumps(_canonical(tree), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def non_finite_fields(tree, path=""):
    """Paths of every float in ``tree`` that is NaN or infinite."""
    tree = _canonical(tree)
    if isinstance(tree, dict):
        return [bad for key, item in tree.items()
                for bad in non_finite_fields(item, "%s.%s" % (path, key))]
    if isinstance(tree, list):
        return [bad for index, item in enumerate(tree)
                for bad in non_finite_fields(item, "%s[%d]" % (path, index))]
    if isinstance(tree, float) and not math.isfinite(tree):
        return [path or "."]
    return []


# --------------------------------------------------------------------- #
# Serving workloads                                                     #
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ServingSpec:
    """Shape of one serving workload.

    ``pool_per_table`` is the number of distinct requests each table's
    trace yields (queries cycle through them); ``None`` gives every query
    of a repetition its own content.
    """

    node_system: str
    num_frontends: int
    num_tables: int
    poolings: int
    pooling_factor: int
    max_delay_us: float
    engine: str
    arrival: str
    rate_qps: float
    queries_per_rep: int
    service_model: str
    pool_per_table: Optional[int] = None
    slo_us: Optional[float] = None
    admission: Optional[str] = None
    cold_store: bool = False
    num_nodes: int = 2
    max_queries: int = 8
    stream_chunk: int = 65_536
    calibration_queries: int = 2_048


@dataclass
class ServingState:
    seed: int
    traces: list
    cluster: ShardedServingCluster
    model: object
    frontend: BatchingFrontend
    store_dir: Optional[str] = None
    lookups: int = 0
    before: dict = None


class ServingWorkload:
    """A seeded query stream through :meth:`ShardedServingCluster.simulate`."""

    def __init__(self, name, why, spec):
        self.name = name
        self.why = why
        self.spec = spec

    def scaled(self, **changes):
        """A copy with some :class:`ServingSpec` fields changed."""
        return ServingWorkload(self.name, self.why,
                               dataclasses.replace(self.spec, **changes))

    # -- set-up -------------------------------------------------------- #
    def setup(self, seed, work_dir):
        spec = self.spec
        pool = spec.pool_per_table or spec.queries_per_rep
        traces = make_production_table_traces(
            num_lookups_per_table=pool * spec.poolings * spec.pooling_factor,
            num_rows=NUM_ROWS, num_tables=spec.num_tables, seed=seed)
        store_dir = None
        store = None
        if spec.cold_store:
            store_dir = tempfile.mkdtemp(prefix="store-", dir=work_dir)
            store = "%s/service-times.sqlite" % store_dir
        cluster = ShardedServingCluster(
            num_nodes=spec.num_nodes, node_system=spec.node_system,
            num_frontends=spec.num_frontends, address_of=address_of,
            vector_size_bytes=VECTOR_BYTES, service_store=store)
        model = InterpolatingServiceModel(traces) \
            if spec.service_model == "interp" else "exact"
        state = ServingState(
            seed=seed, traces=traces, cluster=cluster, model=model,
            frontend=BatchingFrontend(max_queries=spec.max_queries,
                                      max_delay_us=spec.max_delay_us),
            store_dir=store_dir)
        if spec.service_model == "interp":
            # The grid calibrates lazily on the first batch of each query
            # shape; a short run of the same stream pays it here.
            self._simulate(state, min(spec.calibration_queries,
                                      spec.queries_per_rep))
        return state

    def inputs(self, state):
        stream = self._stream(state, self.spec.queries_per_rep)
        lookups = 0
        while stream.remaining:
            lookups += int(stream.take(self.spec.stream_chunk)
                           .lookups.sum())
        state.lookups = lookups

    def close(self, state):
        state.cluster.close()
        if state.store_dir is not None:
            shutil.rmtree(state.store_dir, ignore_errors=True)

    # -- one repetition ------------------------------------------------ #
    def _arrivals(self, seed):
        spec = self.spec
        if spec.arrival == "mmpp":
            return MMPPArrivalProcess.from_mean(spec.rate_qps, burstiness=4.0,
                                                seed=seed)
        return PoissonArrivalProcess(spec.rate_qps, seed=seed)

    def _stream(self, state, num_queries):
        return QueryStream(state.traces, self._arrivals(state.seed),
                           num_queries=num_queries,
                           batch_size=self.spec.poolings,
                           pooling_factor=self.spec.pooling_factor)

    def _simulate(self, state, num_queries):
        spec = self.spec
        policy = FixedSLOPolicy(spec.slo_us) \
            if spec.slo_us is not None else None
        return state.cluster.simulate(
            self._stream(state, num_queries), frontend=state.frontend,
            engine=spec.engine, service_model=state.model,
            slo_policy=policy, admission=spec.admission,
            stream_chunk=spec.stream_chunk)

    def _stats(self, state):
        stats = state.cluster.service_stats()
        if self.spec.service_model == "interp":
            stats["model"] = state.model.stats()
        return stats

    def before_rep(self, state):
        if self.spec.cold_store:
            state.cluster.reset()
            state.cluster.service_store.invalidate()
        state.before = self._stats(state)

    def run(self, state):
        return self._simulate(state, self.spec.queries_per_rep)

    # -- checks and counts --------------------------------------------- #
    def digest(self, report):
        return content_digest(dataclasses.asdict(report))

    def units(self, state, report):
        slo = report.extras.get("slo") or {}
        offered = self.spec.queries_per_rep
        after = self._stats(state)
        before = state.before
        cache_hits = after["cache"]["hits"] - before["cache"]["hits"]
        cache_misses = after["cache"]["misses"] - before["cache"]["misses"]
        return {
            "queries": offered,
            "lookups": state.lookups,
            "admitted": report.num_queries,
            "shed": int(slo.get("num_shed", 0)),
            "batches": report.num_batches,
            "cache_hits": cache_hits,
            "cache_lookups": cache_hits + cache_misses,
            "exact_sims": after["exact_simulations"]
            - before["exact_simulations"],
        }

    def check(self, state, report):
        """Invariant violations of one repetition (empty when correct)."""
        spec = self.spec
        problems = ["non-finite report field %s" % path
                    for path in non_finite_fields(dataclasses.asdict(report))]
        offered = spec.queries_per_rep
        slo = report.extras.get("slo")
        if slo is not None:
            if slo["num_offered"] != offered:
                problems.append("offered %d != generated %d"
                                % (slo["num_offered"], offered))
            if slo["num_admitted"] + slo["num_shed"] != slo["num_offered"]:
                problems.append("admitted + shed != offered")
            if slo["num_admitted"] != report.num_queries:
                problems.append("queries in batches != admitted")
        elif report.num_queries != offered:
            problems.append("queries in batches %d != generated %d"
                            % (report.num_queries, offered))
        if sum(report.trigger_counts.values()) != report.num_batches:
            problems.append("trigger counts do not sum to the batch count")
        if report.num_queries > report.num_batches * spec.max_queries:
            problems.append("a batch exceeds max_queries")
        units = self.units(state, report)
        if spec.service_model == "interp":
            before = state.before["model"]
            after = state.model.stats()
            interpolated = after["interpolated_calls"] \
                - before["interpolated_calls"]
            # Admission adds one probe batch for its capacity estimate.
            probes = 1 if spec.admission is not None else 0
            if after["exact_calls"] != before["exact_calls"]:
                problems.append("interp grid calibrated inside the run")
            if interpolated != report.num_batches + probes:
                problems.append("interpolated %d batches, formed %d"
                                % (interpolated, report.num_batches))
        else:
            # Every formed batch simulated exactly once from a cold cache
            # and an empty store: the simulated lookups are exactly the
            # generated ones.
            if units["exact_sims"] != report.num_batches \
                    or units["cache_hits"]:
                problems.append(
                    "%d exact sims / %d cache hits for %d batches"
                    % (units["exact_sims"], units["cache_hits"],
                       report.num_batches))
            store = self._stats(state).get("store")
            if spec.cold_store and store["puts"] \
                    - state.before["store"]["puts"] != report.num_batches:
                problems.append("store writes != batches")
        return problems

    def calibration_sims(self, state):
        """Cycle simulations the interp grid ran during set-up."""
        if self.spec.service_model != "interp":
            return 0
        return state.model.stats()["exact_calls"]

    def speedup(self, report):
        return 0.0

    def context(self, report):
        """Simulated-clock figures printed beside the host metrics."""
        slo = report.extras.get("slo") or {}
        goodput = slo.get("goodput_qps")
        return ("simulated: p99 %.3f us, utilisation %.3f, %s, "
                "%d batches" % (
                    report.p99_us, report.utilization,
                    "goodput %.0f q/s" % goodput if goodput is not None
                    else "no SLO", report.num_batches))


# --------------------------------------------------------------------- #
# Paper-figure workload                                                 #
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class FigureSpec:
    """Fig. 16's production request shape on its first ``num_tables``
    tables (two keep a repetition short enough to repeat many times)."""

    system: str = "recnmp-opt"
    num_tables: int = 2
    batch_size: int = 8
    pooling_factor: int = 40


@dataclass
class FigureState:
    seed: int
    requests: list
    system: object
    lookups: int = 0


class FigureWorkload:
    """Fig. 16's production workload on one RecNMP channel, with the DDR4
    baseline it is normalised against."""

    def __init__(self, name, why, spec):
        self.name = name
        self.why = why
        self.spec = spec

    def scaled(self, **changes):
        return FigureWorkload(self.name, self.why,
                              dataclasses.replace(self.spec, **changes))

    def setup(self, seed, work_dir):
        del work_dir
        spec = self.spec
        traces = make_production_table_traces(
            num_lookups_per_table=spec.batch_size * spec.pooling_factor,
            num_rows=NUM_ROWS, num_tables=spec.num_tables, seed=seed)
        requests = [batched_requests_from_trace(
            trace, spec.batch_size, spec.pooling_factor)[0]
            for trace in traces]
        system = build_system(spec.system, address_of=address_of,
                              vector_size_bytes=VECTOR_BYTES,
                              compare_baseline=True)
        return FigureState(seed=seed, requests=requests, system=system)

    def inputs(self, state):
        state.lookups = sum(int(request.total_lookups)
                            for request in state.requests)

    def close(self, state):
        state.system.close()

    def before_rep(self, state):
        # A user running the figure pays the baseline in every process.
        clear_baseline_cache()

    def run(self, state):
        return state.system.run(state.requests)

    def digest(self, result):
        fields = dataclasses.asdict(result.raw)
        # Which kernel flavor ran is recorded in the environment line;
        # every flavor produces the same simulated output.
        del fields["kernel_flavor"]
        return content_digest(fields)

    def units(self, state, result):
        # One query is one batch-size request on every table; no serving
        # layer (batcher, cluster cache) is involved.
        return {"queries": 1, "lookups": state.lookups, "admitted": 0,
                "shed": 0, "batches": 0, "cache_hits": 0,
                "cache_lookups": 0, "exact_sims": 0}

    def check(self, state, result):
        raw = result.raw
        problems = ["non-finite result field %s" % path
                    for path in non_finite_fields(dataclasses.asdict(raw))]
        for label, count in (("system lookups", result.num_lookups),
                             ("instructions", raw.num_instructions),
                             ("rank-NMP instructions",
                              raw.channel_stats["instructions"])):
            if count != state.lookups:
                problems.append("%s %d != generated lookups %d"
                                % (label, count, state.lookups))
        if raw.total_cycles <= 0 or raw.baseline_cycles <= 0:
            problems.append("non-positive cycle count")
        return problems

    def calibration_sims(self, state):
        return 0

    def speedup(self, result):
        return result.speedup_vs_baseline

    def context(self, result):
        raw = result.raw
        return ("simulated: %d RecNMP cycles vs %d DDR4 cycles "
                "(speedup %.3fx), rank-cache hit rate %.3f"
                % (raw.total_cycles, raw.baseline_cycles,
                   raw.speedup_vs_baseline, raw.cache_hit_rate))


# --------------------------------------------------------------------- #
# The catalogue                                                         #
# --------------------------------------------------------------------- #
WORKLOADS = {
    workload.name: workload for workload in (
        ServingWorkload(
            "serve-interp-stream",
            "million-query serving path: interpolated service times, "
            "batch forming and the FIFO event kernel at 0.7x load",
            ServingSpec(node_system="recnmp-opt", num_frontends=4,
                        num_tables=8, poolings=4, pooling_factor=20,
                        max_delay_us=100.0, engine="event",
                        arrival="poisson", rate_qps=4.0e6,
                        queries_per_rep=100_000, service_model="interp",
                        pool_per_table=64)),
        ServingWorkload(
            "serve-overload-edf",
            "same pipeline at 1.5x overload: MMPP arrivals, SLO deadlines, "
            "deadline admission and the EDF kernel",
            ServingSpec(node_system="recnmp-opt", num_frontends=2,
                        num_tables=8, poolings=8, pooling_factor=40,
                        max_delay_us=200.0, engine="event-edf",
                        arrival="mmpp", rate_qps=1.96e6,
                        queries_per_rep=50_000, service_model="interp",
                        pool_per_table=64, slo_us=86.0,
                        admission="deadline")),
        ServingWorkload(
            "serve-exact-cold",
            "every batch cycle-simulated: distinct 80-instruction packets, "
            "cold cache and empty service store",
            ServingSpec(node_system="recnmp-opt-4ch", num_frontends=1,
                        num_tables=8, poolings=8, pooling_factor=10,
                        max_delay_us=200.0, engine="event",
                        arrival="poisson", rate_qps=2.25e6,
                        queries_per_rep=48, service_model="exact",
                        cold_store=True)),
        FigureWorkload(
            "sim-fig16-ddr4",
            "paper Fig. 16 production run: 320-instruction packed packets "
            "plus the DDR4 baseline, paid in every process",
            FigureSpec()),
    )
}

#: Sizes small enough for the wiring test: the same per-table request
#: shapes on fewer tables and queries (overload keeps its 1.5x load).
TINY = {
    "serve-interp-stream": dict(queries_per_rep=4_096, num_tables=2,
                                calibration_queries=512),
    "serve-overload-edf": dict(queries_per_rep=4_096, num_tables=2,
                               rate_qps=7.84e6, calibration_queries=512),
    "serve-exact-cold": dict(queries_per_rep=16),
    "sim-fig16-ddr4": dict(num_tables=1),
}


def tiny(name):
    """The named workload at wiring-test size."""
    return WORKLOADS[name].scaled(**TINY[name])
