"""Command-line entry point: ``python -m repro``.

Subcommands
-----------
``list-systems``
    Print every registered embedding system with its description.
``run``
    Build a system by registry name, run a synthetic workload on it and
    print the canonical result.
``serve``
    Drive a sharded serving cluster and print the latency/QPS report.
    ``--arrival`` picks the traffic model (``poisson``, bursty two-state
    ``mmpp``, or ``trace`` -- replay of a recorded bursty gap sequence
    scaled to the offered rate), ``--engine`` the queueing model
    (analytic M/G/c, event-driven FIFO simulation, or ``event-edf`` for
    earliest-deadline-first dispatch), ``--frontends`` the number of
    concurrent dispatch servers, and ``--service-model`` how per-batch
    service times are obtained (exact cycle simulation or grid
    interpolation).  ``--shard-policy`` / ``--replicas`` /
    ``--hot-fraction`` control table placement: load-aware bin-packing
    and hot-table replication fed by the measured per-table loads, with
    the per-request dispatch cost calibrated from the node itself unless
    ``--request-overhead`` overrides it.  ``--slo-us`` assigns every
    query a completion deadline and reports SLO attainment and goodput;
    ``--admission`` places an admission controller in front of the
    batcher (``none`` / ``token-bucket`` / ``queue-depth`` /
    ``deadline``) so overload sheds instead of queueing without bound.
    Exact-mode batch service times persist across runs in a sqlite
    service-time store (default path under the user cache dir, or a
    directory named by ``--service-store-dir``), so repeating a
    ``serve`` warm-starts with zero cycle simulations;
    ``--no-service-store`` keeps everything in memory.  The report ends
    with the service cache/store entries/hits/misses alongside the
    baseline-cache accounting.  Large ``--queries`` runs (hundreds of
    thousands and up) should add ``--stream-chunk N``: queries are then
    generated and simulated in arrival-ordered chunks of ``N`` through
    the array-backed streaming path, keeping memory O(chunk) while the
    report stays byte-identical to the one-shot run (pair it with
    ``--service-model interp``; streaming is incompatible with
    ``--shard-policy load-aware`` / ``--replicas``, whose placement is
    fed by the materialised query list).  Observability:
    ``--trace out.json`` writes a Perfetto-loadable Chrome trace of the
    run (per-query lifecycle spans, batch slices per frontend lane,
    queue-depth and per-node activity counters) and ``--metrics-json
    m.json`` dumps the cluster's metrics-registry snapshot; for serve
    the workload locality flag is spelled ``--workload-trace``
    (``run``/``profile`` keep ``--trace synthetic|production``).

``report``
    Pretty-print a metrics snapshot written by ``serve
    --metrics-json`` as an aligned terminal table (counters, gauges,
    histogram percentiles, collected component stats).

``profile``
    cProfile a system's workload run and print the hottest functions
    (``--top``/``--sort`` control the report) together with the active
    command-issue kernel flavour -- the before/after instrument for
    performance work on the cycle simulator.

``lint``
    Run the repo's invariant linter (:mod:`repro.analysis`) over the
    given files/directories (default: the installed ``repro`` package).
    ``--rule NAME`` (repeatable) restricts to specific rules and
    ``--json`` emits machine-readable findings.  Exit code 0 means the
    tree is clean, 1 means findings were reported, and 2 is a usage
    error (unknown rule, missing path).  Suppress an intentional
    pattern in place with ``# repro-lint: allow-<rule> (reason)``.

``run``, ``serve`` and ``profile`` accept ``--backend {serial,process}``
and ``--jobs N`` to pick the execution backend: for ``run``/``profile``
it drives the multi-channel cycle simulations (``process`` puts N
channels on N cores); for ``serve`` it is the cluster's *node-level*
backend (the per-node shard simulations of each batch fan out, with
``--jobs`` governing the total worker slots).  ``run`` prints the
memoised DDR4 baseline-cache effectiveness after the workload.
"""

import argparse
import cProfile
import io
import json
import math
import pstats
import sys

from repro.perf.baseline_cache import baseline_cache_stats
from repro.perf.service_model import InterpolatingServiceModel
from repro.serving import (
    BatchingFrontend,
    MMPPArrivalProcess,
    PoissonArrivalProcess,
    QueryStream,
    ReplicatedTableSharder,
    ShardedServingCluster,
    TraceReplayArrivalProcess,
    calibrate_request_overhead_from_queries,
    queries_from_traces,
)
from repro.systems import (
    available_systems,
    build_system,
    system_description,
)
from repro.traces import make_production_table_traces, random_trace
from repro.traces.synthetic import trace_request


def _build_traces(kind, num_tables, num_rows, lookups_per_table, seed):
    if kind == "production":
        return make_production_table_traces(
            num_lookups_per_table=lookups_per_table, num_rows=num_rows,
            num_tables=num_tables, seed=seed)
    return [random_trace(num_rows, lookups_per_table, table_id=t,
                         seed=seed + t, name="random-T%d" % t)
            for t in range(num_tables)]


def _build_requests(traces, batch, pooling):
    per_request = batch * pooling
    if any(len(trace) < per_request for trace in traces):
        raise SystemExit("trace too short: need %d lookups per table"
                         % per_request)
    return [trace_request(trace, batch, pooling, 0) for trace in traces]


def _backend_overrides(args):
    """``build_system`` overrides for ``--backend``/``--jobs`` (when set)."""
    overrides = {}
    if args.backend is not None:
        overrides["backend"] = args.backend
    if args.jobs is not None:
        overrides["max_workers"] = args.jobs
    return overrides


def _build_system_or_exit(name, had_backend_overrides=False, **overrides):
    """Build a registry system; unknown names exit with the candidates.

    A ``TypeError`` is translated into a friendly message only when
    ``--backend``/``--jobs`` overrides were actually passed (the one way
    a user can feed a system a keyword it rejects); otherwise it is a
    real bug and the traceback must surface.
    """
    try:
        return build_system(name, **overrides)
    except KeyError as error:
        raise SystemExit("error: %s" % error.args[0])
    except TypeError as error:
        if had_backend_overrides:
            raise SystemExit("error: system %r rejected an override: %s"
                             % (name, error))
        raise


def cmd_list_systems(args):
    names = available_systems()
    width = max(len(name) for name in names)
    for name in names:
        print("%-*s  %s" % (width, name, system_description(name)))
    return 0


def cmd_run(args):
    traces = _build_traces(args.workload_trace, args.tables, args.num_rows,
                           args.batch * args.pooling, args.seed)
    requests = _build_requests(traces, args.batch, args.pooling)
    # No explicit address map: the adapters build the dense TableLayout
    # from table_rows/vector_size_bytes, matching the generated traces.
    backend_overrides = _backend_overrides(args)
    # Systems are context managers: exit releases pooled backend workers.
    with _build_system_or_exit(
            args.system, had_backend_overrides=bool(backend_overrides),
            table_rows=args.num_rows,
            vector_size_bytes=args.vector_bytes,
            **backend_overrides) as system:
        result = system.run(requests)
    cache_stats = baseline_cache_stats()
    payload = result.as_dict()
    payload["description"] = system.describe()
    payload["baseline_cache"] = cache_stats
    if args.json:
        json.dump(payload, sys.stdout, indent=2)
        print()
        return 0
    print(system.describe())
    print("  workload       : %d requests, %d lookups (%s trace)"
          % (result.num_requests, result.num_lookups,
             args.workload_trace))
    print("  latency        : %d cycles (%.2f us)"
          % (result.total_cycles, result.latency_us))
    if result.baseline_cycles:
        print("  host baseline  : %d cycles -> %.2fx speedup"
              % (result.baseline_cycles, result.speedup_vs_baseline))
    if result.cache_hit_rate:
        print("  cache hit rate : %.1f%%" % (100 * result.cache_hit_rate))
    if result.energy_nj:
        print("  memory energy  : %.1f nJ (savings %.1f%%)"
              % (result.energy_nj,
                 100 * result.energy_savings_fraction))
    print("  baseline cache : %d entries, %d hits, %d misses"
          % (cache_stats["entries"], cache_stats["hits"],
             cache_stats["misses"]))
    return 0


def _build_arrivals(args):
    """Arrival process for ``serve`` from ``--arrival`` / ``--qps``."""
    if args.arrival == "poisson":
        return PoissonArrivalProcess(rate_qps=args.qps, seed=args.seed)
    if args.arrival == "mmpp":
        return MMPPArrivalProcess.from_mean(args.qps, seed=args.seed)
    # "trace": replay a recorded bursty gap sequence rate-scaled to the
    # offered load -- the same burst shape at every --qps.
    return TraceReplayArrivalProcess.from_mmpp(args.qps, args.queries,
                                               seed=args.seed)


def _service_store_arg(args):
    """``service_store=`` value for the serve cluster from the CLI flags."""
    if args.no_service_store:
        return None
    if args.service_store_dir is not None:
        from pathlib import Path

        from repro.perf.service_store import STORE_FILENAME

        return Path(args.service_store_dir) / STORE_FILENAME
    return "default"


def _format_tier_stats(stats):
    """``entries, hits, misses (rate)`` line for a cache/store snapshot."""
    lookups = stats["hits"] + stats["misses"]
    rate = 100.0 * stats["hits"] / lookups if lookups else 0.0
    return "%d entries, %d hits, %d misses (%.1f%% hit rate)" % (
        stats["entries"], stats["hits"], stats["misses"], rate)


def cmd_serve(args):
    if args.slo_us is not None and not 0.0 < args.slo_us < math.inf:
        raise SystemExit("error: --slo-us must be positive and finite")
    if args.admission == "deadline" and args.slo_us is None:
        raise SystemExit("error: --admission deadline sheds by deadline "
                         "slack; pass --slo-us to assign one")
    if args.request_overhead is not None and args.request_overhead < 0:
        raise SystemExit("error: --request-overhead must be non-negative")
    if args.stream_chunk is not None:
        if args.stream_chunk < args.max_batch:
            raise SystemExit("error: --stream-chunk must be >= "
                             "--max-batch (%d)" % args.max_batch)
        if args.shard_policy == "load-aware" or args.replicas > 1:
            raise SystemExit("error: --stream-chunk streams queries in "
                             "chunks, but load-aware placement and "
                             "replication are fed by the materialised "
                             "query list; drop --stream-chunk or use "
                             "--shard-policy hash")
    traces = _build_traces(args.workload_trace, args.tables,
                           args.num_rows,
                           max(args.batch * args.pooling * 4, 2_000),
                           args.seed)
    if args.stream_chunk is not None:
        # Chunked generation: arrivals and query columns materialise
        # O(stream_chunk) at a time inside simulate().
        queries = QueryStream(
            traces, _build_arrivals(args), num_queries=args.queries,
            batch_size=args.batch, pooling_factor=args.pooling)
    else:
        queries = queries_from_traces(
            traces, args.queries, _build_arrivals(args),
            batch_size=args.batch, pooling_factor=args.pooling)
    if args.shard_policy == "load-aware" or args.replicas > 1:
        # Replication and load-aware placement are fed by the measured
        # per-table lookup loads of the offered stream, priced with the
        # node's own per-request dispatch cost (calibrated from its
        # measured service times unless --request-overhead overrides).
        if args.request_overhead is None:
            with _build_system_or_exit(
                    args.system, table_rows=args.num_rows,
                    vector_size_bytes=args.vector_bytes,
                    compare_baseline=False) as probe:
                overhead = calibrate_request_overhead_from_queries(
                    probe, queries)
        else:
            overhead = args.request_overhead
        sharding = {"sharder": ReplicatedTableSharder.from_queries(
            args.nodes, queries, request_overhead_lookups=overhead,
            policy=args.shard_policy,
            max_replicas=args.replicas, hot_fraction=args.hot_fraction,
            seed=args.seed)}
    else:
        sharding = {"shard_policy": args.shard_policy}
    try:
        cluster = ShardedServingCluster(
            num_nodes=args.nodes, node_system=args.system,
            num_frontends=args.frontends,
            table_rows=args.num_rows,
            backend=args.backend, jobs=args.jobs,
            service_store=_service_store_arg(args),
            vector_size_bytes=args.vector_bytes, **sharding)
    except KeyError as error:     # unknown registry name from build_system
        raise SystemExit("error: %s" % error.args[0])
    except TypeError as error:    # node system rejected backend override
        if args.backend is not None or args.jobs is not None:
            raise SystemExit("error: system %r rejected an override: %s"
                             % (args.system, error))
        raise
    if args.service_model == "interp":
        service_model = InterpolatingServiceModel(traces)
    else:
        service_model = None
    tracer = None
    if args.trace is not None:
        from repro.obs import Tracer

        tracer = Tracer(label="serve")
    # Clusters are context managers: exit releases the node-level
    # backend and every node's own pooled workers.
    with cluster:
        report = cluster.simulate(
            queries,
            frontend=BatchingFrontend(max_queries=args.max_batch,
                                      max_delay_us=args.max_delay_us),
            engine=args.engine, service_model=service_model,
            slo_policy=args.slo_us, admission=args.admission,
            stream_chunk=args.stream_chunk,
            trace=tracer, metrics=args.metrics_json is not None)
        # Collected inside the context: the store's entry count needs
        # its connection, which close() releases (the metrics snapshot
        # polls the same store collector).
        service_stats = cluster.service_stats()
        metrics_snapshot = (cluster.metrics.snapshot()
                            if args.metrics_json is not None else None)
    if tracer is not None:
        tracer.write_chrome_trace(args.trace)
    if metrics_snapshot is not None:
        from repro.obs import write_metrics_json

        write_metrics_json(metrics_snapshot, args.metrics_json)
    if args.json:
        payload = report.as_dict()
        payload["service_stats"] = service_stats
        if args.trace is not None:
            payload["trace_path"] = args.trace
        if args.metrics_json is not None:
            payload["metrics_path"] = args.metrics_json
        json.dump(payload, sys.stdout, indent=2)
        print()
        return 0
    print("%s serving %d queries at %.0f QPS offered (%s arrivals)" %
          (cluster.describe(), report.num_queries, report.offered_qps,
           args.arrival))
    print("  engine         : %s (%d frontend%s, %s service times)"
          % (args.engine, report.num_servers,
             "s" if report.num_servers != 1 else "",
             args.service_model))
    print("  sharding       : %s" % cluster.sharder.describe())
    print("  batches        : %d (%s)"
          % (report.num_batches,
             ", ".join("%s=%d" % kv
                       for kv in sorted(report.trigger_counts.items()))))
    print("  utilization    : %.1f%%" % (100 * report.utilization))
    print("  latency p50    : %.1f us" % report.p50_us)
    print("  latency p95    : %.1f us" % report.p95_us)
    print("  latency p99    : %.1f us" % report.p99_us)
    print("  sustainable    : %.0f QPS" % report.sustainable_qps)
    slo = report.extras.get("slo")
    if slo is not None:
        print("  slo            : %s" % (slo["slo_policy"] or "none"))
        if slo["attainment"] is not None:
            print("  attainment     : %.1f%% (%d/%d deadlines met)"
                  % (100 * slo["attainment"], slo["deadlines_met"],
                     slo["num_with_deadline"]))
        print("  admission      : %s, shed %d/%d (%.1f%%)"
              % (slo["admission"], slo["num_shed"], slo["num_offered"],
                 100 * slo["shed_rate"]))
        print("  goodput        : %.0f QPS" % slo["goodput_qps"])
    print("  service cache  : %s" % _format_tier_stats(
        service_stats["cache"]))
    if "store" in service_stats:
        print("  service store  : %s" % _format_tier_stats(
            service_stats["store"]))
    print("  exact sims     : %d batch simulations (%d duplicates "
          "collapsed)" % (service_stats["exact_simulations"],
                          service_stats["dedup_hits"]))
    if tracer is not None:
        print("  trace          : %s (load in ui.perfetto.dev)"
              % args.trace)
    if metrics_snapshot is not None:
        print("  metrics json   : %s (pretty-print with "
              "'python -m repro report %s')"
              % (args.metrics_json, args.metrics_json))
    return 0


def cmd_report(args):
    """Pretty-print a ``serve --metrics-json`` snapshot as a table."""
    from repro.obs import format_metrics_table

    try:
        with open(args.metrics_json) as handle:
            snapshot = json.load(handle)
    except OSError as error:
        raise SystemExit("error: cannot read %s: %s"
                         % (args.metrics_json, error))
    except json.JSONDecodeError as error:
        raise SystemExit("error: %s is not valid JSON: %s"
                         % (args.metrics_json, error))
    if not isinstance(snapshot, dict):
        raise SystemExit("error: %s is not a metrics snapshot (expected "
                         "a JSON object)" % args.metrics_json)
    print(format_metrics_table(snapshot))
    return 0


def cmd_profile(args):
    """cProfile one system's workload run and print the hottest functions.

    The same workload knobs as ``run`` apply, so a profile is always of
    a reproducible composition; the report header carries the active
    command-issue kernel flavour, which is the first thing to check when
    comparing before/after numbers across hosts.
    """
    from repro.core import kernels

    if args.system_name is not None:
        args.system = args.system_name
    traces = _build_traces(args.workload_trace, args.tables,
                           args.num_rows,
                           args.batch * args.pooling, args.seed)
    requests = _build_requests(traces, args.batch, args.pooling)
    backend_overrides = _backend_overrides(args)
    with _build_system_or_exit(
            args.system, had_backend_overrides=bool(backend_overrides),
            table_rows=args.num_rows,
            vector_size_bytes=args.vector_bytes,
            **backend_overrides) as system:
        if args.warmup:
            system.run(requests)   # exclude one-time setup (JIT, pools)
        profiler = cProfile.Profile()
        profiler.enable()
        result = system.run(requests)
        profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats(args.sort).print_stats(args.top)
    header = {
        "system": system.describe(),
        "kernels": kernels.describe(),
        "total_cycles": result.total_cycles,
        "num_lookups": result.num_lookups,
        "sort": args.sort,
    }
    if args.json:
        rows = []
        for func, (primitive, calls, tottime, cumtime, _) in \
                sorted(stats.stats.items(), key=lambda kv: -kv[1][3])[
                    :args.top]:
            filename, line, name = func
            rows.append({"function": "%s:%d:%s" % (filename, line, name),
                         "calls": calls, "primitive_calls": primitive,
                         "tottime": tottime, "cumtime": cumtime})
        json.dump({"profile": header, "top": rows}, sys.stdout, indent=2)
        print()
        return 0
    print("profiled %s" % header["system"])
    print("  kernels        : %s" % header["kernels"])
    print("  workload       : %d lookups -> %d cycles (%s trace)"
          % (result.num_lookups, result.total_cycles,
             args.workload_trace))
    print(stream.getvalue())
    return 0


def cmd_lint(args):
    """Run the invariant linter; exit 0 clean / 1 findings / 2 usage."""
    from repro.analysis import LintUsageError, available_rules, lint_paths

    if args.rule:
        unknown = [name for name in args.rule
                   if name not in available_rules()]
        if unknown:
            print("error: unknown rule%s %s; available: %s"
                  % ("s" if len(unknown) > 1 else "",
                     ", ".join(repr(name) for name in unknown),
                     ", ".join(available_rules())), file=sys.stderr)
            return 2
    paths = args.paths
    if not paths:
        from pathlib import Path

        import repro

        paths = [str(Path(repro.__file__).parent)]
    try:
        findings = lint_paths(paths, rules=args.rule or None)
    except LintUsageError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    rules_run = sorted(args.rule) if args.rule else available_rules()
    if args.json:
        json.dump({"paths": [str(p) for p in paths],
                   "rules": rules_run,
                   "num_findings": len(findings),
                   "findings": [f.as_dict() for f in findings]},
                  sys.stdout, indent=2)
        print()
        return 1 if findings else 0
    for finding in findings:
        print(finding.format())
    print("%d finding%s (%d rule%s over %s)"
          % (len(findings), "s" if len(findings) != 1 else "",
             len(rules_run), "s" if len(rules_run) != 1 else "",
             ", ".join(str(p) for p in paths)))
    return 1 if findings else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="RecNMP reproduction: unified system runner")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-systems",
                   help="list registered embedding systems")

    def add_workload_args(p, trace_flag="--trace"):
        p.add_argument("--system", default="recnmp-opt",
                       help="registry name (see list-systems)")
        p.add_argument(trace_flag, dest="workload_trace",
                       choices=("synthetic", "production"),
                       default="synthetic",
                       help="'synthetic' (random) or 'production' locality")
        p.add_argument("--tables", type=int, default=4)
        p.add_argument("--batch", type=int, default=8)
        p.add_argument("--pooling", type=int, default=40)
        p.add_argument("--num-rows", type=int, default=20_000)
        p.add_argument("--vector-bytes", type=int, default=128)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--backend",
                       choices=("serial", "process"),
                       default=None,
                       help="execution backend (run/profile: one core per "
                            "channel; serve: one core per node shard)")
        p.add_argument("--jobs", type=int, default=None,
                       help="max concurrent backend workers (default: one "
                            "per busy channel / node)")
        p.add_argument("--json", action="store_true",
                       help="emit the result as JSON")

    run = sub.add_parser("run", help="run one system on a workload")
    add_workload_args(run)

    profile = sub.add_parser(
        "profile", help="cProfile a system's workload run")
    add_workload_args(profile)
    profile.add_argument("system_name", nargs="?", default=None,
                         metavar="system",
                         help="registry name (positional alternative to "
                              "--system)")
    profile.add_argument("--top", type=int, default=25,
                         help="number of functions in the report")
    profile.add_argument("--sort", choices=("cumulative", "tottime"),
                         default="cumulative",
                         help="profile sort order")
    profile.add_argument("--warmup", action="store_true",
                         help="run the workload once unprofiled first to "
                              "exclude one-time setup (JIT compilation, "
                              "worker pools)")

    lint = sub.add_parser(
        "lint", help="run the repo invariant linter (repro.analysis)")
    lint.add_argument("paths", nargs="*",
                      help="files or directories to lint (default: the "
                           "installed repro package)")
    lint.add_argument("--rule", action="append", default=None,
                      metavar="NAME",
                      help="run only this rule (repeatable; default: "
                           "all registered rules)")
    lint.add_argument("--json", action="store_true",
                      help="emit findings as JSON")

    serve = sub.add_parser("serve",
                           help="drive a sharded serving cluster")
    # serve spells the workload locality flag --workload-trace so that
    # --trace can name the Perfetto trace output file.
    add_workload_args(serve, trace_flag="--workload-trace")
    serve.add_argument("--trace", default=None, metavar="PATH",
                       help="write a Perfetto-loadable Chrome trace of "
                            "the run (query lifecycle spans, batch "
                            "slices, queue-depth counters) to PATH")
    serve.add_argument("--metrics-json", default=None, metavar="PATH",
                       help="dump the cluster metrics-registry snapshot "
                            "as JSON to PATH (render with 'python -m "
                            "repro report PATH')")
    serve.add_argument("--nodes", type=int, default=2)
    serve.add_argument("--qps", type=float, default=50_000.0)
    serve.add_argument("--queries", type=int, default=64)
    serve.add_argument("--max-batch", type=int, default=8)
    serve.add_argument("--max-delay-us", type=float, default=200.0)
    serve.add_argument("--arrival", choices=("poisson", "mmpp", "trace"),
                       default="poisson",
                       help="traffic model: memoryless Poisson, bursty "
                            "two-state MMPP, or replay of a recorded "
                            "bursty gap trace scaled to --qps")
    serve.add_argument("--engine",
                       choices=("analytic", "event", "event-edf"),
                       default="analytic",
                       help="queueing model: closed-form M/G/c, "
                            "event-driven FIFO dispatch simulation, or "
                            "event-driven earliest-deadline-first")
    serve.add_argument("--slo-us", type=float, default=None,
                       help="per-query completion deadline in "
                            "microseconds; reports SLO attainment and "
                            "goodput alongside the percentiles")
    serve.add_argument("--admission",
                       choices=("none", "token-bucket", "queue-depth",
                                "deadline"),
                       default=None,
                       help="admission controller in front of the "
                            "batcher (deadline-aware shedding needs "
                            "--slo-us)")
    serve.add_argument("--request-overhead", type=float, default=None,
                       help="per-request dispatch cost in "
                            "lookup-equivalents for load-aware "
                            "placement/routing (default: calibrated "
                            "from the node's measured service times)")
    serve.add_argument("--frontends", type=int, default=1,
                       help="concurrent dispatch servers on the batch queue")
    serve.add_argument("--stream-chunk", type=int, default=None,
                       help="generate and simulate queries in arrival-"
                            "ordered chunks of this many (memory stays "
                            "O(chunk); report identical to one-shot) -- "
                            "for large --queries runs")
    serve.add_argument("--shard-policy",
                       choices=("round-robin", "hash", "load-aware"),
                       default="round-robin",
                       help="table placement: round-robin/hash over table "
                            "ids, or load-aware bin-packing by measured "
                            "per-table lookup load")
    serve.add_argument("--replicas", type=int, default=1,
                       help="max replicas per hot table (>1 replicates "
                            "hot tables across nodes and routes to the "
                            "least-loaded replica)")
    serve.add_argument("--hot-fraction", type=float, default=0.1,
                       help="load share above which a table counts as hot "
                            "and is replicated")
    serve.add_argument("--service-model", choices=("exact", "interp"),
                       default="exact",
                       help="per-batch service times: exact cycle "
                            "simulation or calibrated-grid interpolation")
    serve.add_argument("--service-store-dir", default=None,
                       help="directory of the persistent service-time "
                            "store (default: the user cache dir, or "
                            "$REPRO_SERVICE_STORE_DIR)")
    serve.add_argument("--no-service-store", action="store_true",
                       help="keep batch service times in memory only; "
                            "repeated runs re-simulate instead of "
                            "warm-starting from the store")

    report = sub.add_parser(
        "report", help="pretty-print a serve --metrics-json snapshot")
    report.add_argument("metrics_json", metavar="metrics.json",
                        help="metrics snapshot written by "
                             "'serve --metrics-json'")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "list-systems":
        return cmd_list_systems(args)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "profile":
        return cmd_profile(args)
    if args.command == "lint":
        return cmd_lint(args)
    if args.command == "report":
        return cmd_report(args)
    return cmd_serve(args)


if __name__ == "__main__":
    sys.exit(main())
