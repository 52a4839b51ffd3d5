"""Perf regression harness for the exact cycle simulator.

The exact RecNMP cycle simulation is the foundation of every serving
number (event-engine percentiles, sustainable QPS, sharding sweeps), so
this benchmark guards both its *speed* and its *answers*:

* **Cycle-exactness** -- ``total_cycles``, cache hit rate, energy and the
  per-rank/per-channel statistics on the fig16 comparison workloads must
  be bit-identical to the pre-optimisation serial simulator (pinned in
  ``perf_reference.json``), and identical across the ``serial`` and
  ``process`` execution backends.
* **Throughput** -- single-channel exact-sim instructions/sec and the
  4-channel wall-clock are measured per backend; at full scale the suite
  asserts the PR's speedup targets (>=3x single-channel vs the recorded
  pre-optimisation throughput, >=2.5x 4-channel wall-clock with the
  process backend).
* **Kernel flavour** -- where the active flavour is not ``python``, the
  single-channel workload is re-timed under forced ``python`` (the
  rank-NMP column loop); results must match the active flavour's
  bit-for-bit, and at full scale the jitted ``numba`` flavour must beat
  it by >=4x.
* **Node-level parallelism** -- one batch on an 8-node serving cluster
  is timed with the serial and process *node-level* backends;
  service times must be identical, and on hosts with >=8 cores the
  fan-out must reach the >=3x wall-clock target at full scale.
* **Sweep-level parallelism** -- an exact-mode ``qps_sweep`` is timed
  with the serial and process sweep backends (reports must be
  bit-identical), recording points/sec and the batch dedup ratio, then
  re-run cold and warm against a persistent service-time store: the warm
  pass must perform *zero* exact batch simulations (store misses == 0)
  in every mode, and on hosts with >=4 cores the process sweep must
  reach the >=3x wall-clock target at full scale.
* **DDR4 baseline** -- ``run_baseline_trace`` (uncached) on Fig. 16's
  production shape (2 tables x batch 8 x pooling 40, 128-byte vectors)
  on the baseline's 1-channel x 4-DIMM x 2-rank system, reported in
  host microseconds per access (one access is one lookup address, as
  in the perfbench ledger's ``dram.baseline_us_per_access``).  The rest
  of this suite runs with ``compare_baseline=False``, so this row is the
  only floor on the baseline every paper figure is normalised against.
* **Regression floor** -- in every mode (including ``run_all.py --smoke``
  / CI) the measured single-channel throughput, serial sweep points/sec
  and DDR4 baseline cost per access must stay within 2x of the recorded
  post-optimisation values, so future PRs cannot silently re-slow the
  hot paths.

Results are printed as a ``SIM_PERF_JSON:`` record for
``BENCH_results.json``.  Set ``REPRO_PERF_WRITE_REFERENCE=1`` to refresh
the ``recorded`` throughput section after an intentional perf change
(the ``exact`` and ``pre_pr`` sections are never rewritten).
"""

import json
import os
import tempfile
import time
from pathlib import Path

from workloads import (
    NUM_ROWS,
    SMOKE_MODE,
    VECTOR_BYTES,
    address_of,
    build_bench_system,
    format_table,
    production_requests,
    random_requests,
    smoke_scaled,
)

from repro.core import kernels
from repro.dram.system import DramSystemConfig
from repro.perf.baseline_cache import run_baseline_trace

REFERENCE_PATH = Path(__file__).resolve().parent / "perf_reference.json"
MODE = "smoke" if SMOKE_MODE else "full"
NUM_TABLES = 8
BATCH = smoke_scaled(8, 2)
POOLING = smoke_scaled(40, 8)
REPEATS = 3
BACKENDS = ("serial", "process")
WRITE_REFERENCE = os.environ.get("REPRO_PERF_WRITE_REFERENCE", "") \
    not in ("", "0")

#: CI floor: fail when throughput regresses more than 2x below recorded.
REGRESSION_FLOOR = 2.0
#: Full-scale PR targets vs the pre-optimisation measurements.
SINGLE_SPEEDUP_TARGET = 3.0
MULTI_SPEEDUP_TARGET = 2.5
#: Kernel-vs-python single-channel target (full scale): the jitted
#: flavour must clear 4x.
NUMBA_KERNEL_TARGET = 4.0
#: 8-node node-parallel wall-clock target, only meaningful on hosts with
#: at least one core per node.
NODE_PARALLEL_TARGET = 3.0
NODE_COUNT = 8
#: Sweep-level configuration: an exact-mode ``qps_sweep`` over this many
#: offered-load points, timed per sweep backend, then cold/warm against
#: a persistent service-time store.
SWEEP_POINTS = smoke_scaled(8, 3)
SWEEP_QUERIES = smoke_scaled(24, 8)
SWEEP_POOLING = smoke_scaled(16, 8)
SWEEP_BACKENDS = ("serial", "process")
#: Full-scale parallel-sweep wall-clock target, only meaningful on hosts
#: with at least one core per in-flight sweep point.
SWEEP_SPEEDUP_TARGET = 3.0
#: DDR4 baseline row: Fig. 16's first two production tables.
BASELINE_TABLES = 2


def _workloads():
    return {
        "random": random_requests(num_tables=NUM_TABLES, batch=BATCH,
                                  pooling=POOLING, seed=0),
        "production": production_requests(num_tables=NUM_TABLES, batch=BATCH,
                                          pooling=POOLING, seed=0),
    }


def _timed(system, requests, repeats=REPEATS):
    """Best-of-N wall clock of ``system.run(requests)`` (and the result)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = system.run(requests)
        best = min(best, time.perf_counter() - start)
    return result, best


def _single_fields(result):
    return {"total_cycles": result.total_cycles,
            "cache_hit_rate": result.cache_hit_rate,
            "energy_nj": result.energy_nj,
            "rank_load": list(result.extras["rank_load"]),
            "num_packets": result.extras["num_packets"]}


def _multi_fields(result):
    return {"total_cycles": result.total_cycles,
            "cache_hit_rate": result.cache_hit_rate,
            "energy_nj": result.energy_nj,
            "per_channel_cycles": list(result.extras["per_channel_cycles"]),
            "per_channel_instructions":
                list(result.extras["per_channel_instructions"])}


def _kernel_comparison(requests):
    """Single-channel timing with the active kernel flavour vs the
    rank-NMP column loop (``force_flavor("python")``)."""
    active = kernels.active_flavor()
    if active == "python":
        return None   # the column loop is active: nothing to compare
    timings = {}
    fields = {}
    for label, flavor in (("active", active), ("python", "python")):
        with kernels.force_flavor(flavor):
            with build_bench_system(
                    "recnmp-opt", num_dimms=4, ranks_per_dimm=2,
                    compare_baseline=False) as system:
                result, seconds = _timed(system, requests)
        timings[label] = seconds
        fields[label] = _single_fields(result)
    assert fields["active"] == fields["python"], \
        "kernel flavour %r diverged from the python flavour" % active
    return {
        "flavor": active,
        "kernel_seconds": round(timings["active"], 5),
        "python_seconds": round(timings["python"], 5),
        "speedup_vs_python": round(
            timings["python"] / timings["active"], 3),
    }


def _baseline_comparison():
    """Best-of-N uncached DDR4 baseline on Fig. 16's request shape."""
    requests = production_requests(num_tables=BASELINE_TABLES, batch=BATCH,
                                   pooling=POOLING, seed=0)
    addresses = [address_of(request.table_id, int(row))
                 for request in requests for row in request.indices]
    config = DramSystemConfig(num_channels=1, dimms_per_channel=4,
                              ranks_per_dimm=2)
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = run_baseline_trace(config, addresses,
                                    request_bytes=VECTOR_BYTES,
                                    outstanding_per_channel=32,
                                    use_cache=False)
        best = min(best, time.perf_counter() - start)
    return {"num_accesses": len(addresses), "cycles": result.cycles,
            "seconds": round(best, 5),
            "us_per_access": round(best * 1e6 / len(addresses), 3)}


def _node_batch():
    """One batch spanning all the 8-node cluster's tables."""
    from repro.serving import BatchingFrontend
    from repro.serving.arrival import queries_from_traces
    from repro.traces import random_trace

    pooling = smoke_scaled(24, 8)
    queries_count = smoke_scaled(8, 2)
    lookups = queries_count * 2 * pooling
    traces = [random_trace(NUM_ROWS, lookups, table_id=t, seed=t)
              for t in range(NODE_COUNT)]
    queries = queries_from_traces(traces, queries_count,
                                  [0.0] * queries_count,
                                  batch_size=2, pooling_factor=pooling)
    [batch] = BatchingFrontend(max_queries=queries_count).form_batches(
        queries)
    return batch


def _timed_service(cluster, batch, repeats=REPEATS):
    """Best-of-N wall clock of one *uncached* batch service time."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        cluster._service_cache.clear()   # defeat the batch memoisation
        start = time.perf_counter()
        value = cluster.service_time_us(batch)
        best = min(best, time.perf_counter() - start)
    return value, best


def _node_parallel_comparison():
    """8-node batch wall-clock: serial vs process node backend."""
    from repro.serving import ShardedServingCluster

    batch = _node_batch()
    entry = {"num_nodes": NODE_COUNT, "backends": {}}
    values = {}
    for backend in BACKENDS:
        with ShardedServingCluster(
                num_nodes=NODE_COUNT, node_system="recnmp-opt",
                table_rows=NUM_ROWS, vector_size_bytes=VECTOR_BYTES,
                backend=backend) as cluster:
            cluster.service_time_us(batch)   # warm-up (pool spin-up)
            value, seconds = _timed_service(cluster, batch)
        values[backend] = value
        entry["backends"][backend] = {"seconds": round(seconds, 5)}
    assert values["process"] == values["serial"], \
        "node-level fan-out changed the batch service time"
    entry["service_time_us"] = values["serial"]
    entry["parallel_speedup"] = round(
        entry["backends"]["serial"]["seconds"]
        / entry["backends"]["process"]["seconds"], 3)
    return entry


def _sweep_inputs():
    """The query-stream factory and QPS grid of the sweep benchmark."""
    from repro.serving import PoissonArrivalProcess, queries_from_traces
    from repro.traces import make_production_table_traces

    traces = make_production_table_traces(
        num_lookups_per_table=SWEEP_QUERIES * SWEEP_POOLING * 4,
        num_rows=NUM_ROWS, num_tables=4, seed=0)

    def make_queries(qps):
        return queries_from_traces(
            traces, SWEEP_QUERIES,
            PoissonArrivalProcess(rate_qps=qps, seed=1),
            batch_size=2, pooling_factor=SWEEP_POOLING)

    qps_points = [40_000.0 + 20_000.0 * i for i in range(SWEEP_POINTS)]
    return make_queries, qps_points


def _run_sweep(backend, make_queries, qps_points, service_store=None):
    """One exact-mode qps_sweep on a fresh 2-node cluster.

    Returns the per-point reports as plain dicts (the byte-identity
    currency of the serial-vs-parallel and cold-vs-warm comparisons),
    the wall-clock seconds of the sweep itself, and the cluster's
    service cache/store stats.
    """
    from repro.serving import (
        BatchingFrontend,
        ShardedServingCluster,
        qps_sweep,
    )

    with ShardedServingCluster(
            num_nodes=2, node_system="recnmp-opt", table_rows=NUM_ROWS,
            vector_size_bytes=VECTOR_BYTES,
            service_store=service_store) as cluster:
        frontend = BatchingFrontend(max_queries=4, max_delay_us=200.0)
        start = time.perf_counter()
        reports = qps_sweep(cluster, make_queries, qps_points,
                            frontend=frontend, service_model="exact",
                            backend=backend)
        seconds = time.perf_counter() - start
        stats = cluster.service_stats()
    return [r.as_dict() for r in reports], seconds, stats


def _sweep_comparison(store_dir):
    """Serial-vs-process sweep timing plus a cold/warm store pass."""
    make_queries, qps_points = _sweep_inputs()
    entry = {"num_points": len(qps_points), "backends": {}}
    fields = {}
    stats_records = {}
    for backend in SWEEP_BACKENDS:
        reports, seconds, stats = _run_sweep(backend, make_queries,
                                             qps_points)
        fields[backend] = reports
        stats_records["sweep-" + backend] = stats
        entry["backends"][backend] = {
            "seconds": round(seconds, 5),
            "points_per_sec": round(len(qps_points) / seconds, 3),
        }
    for backend in SWEEP_BACKENDS[1:]:
        assert fields[backend] == fields["serial"], \
            "%s sweep reports diverged from the serial loop" % backend
    entry["parallel_speedup"] = round(
        entry["backends"]["serial"]["seconds"]
        / entry["backends"]["process"]["seconds"], 3)
    # Dedup effectiveness of the serial sweep: every batch the engine
    # consumed vs the exact simulations actually run (the rest were
    # served by in-batch dedup or the memoised cache).
    cache = stats_records["sweep-serial"]["cache"]
    resolved = cache["hits"] + cache["misses"]
    entry["batches_resolved"] = resolved
    entry["exact_simulations"] = \
        stats_records["sweep-serial"]["exact_simulations"]
    entry["dedup_ratio"] = round(
        1.0 - entry["exact_simulations"] / resolved, 4) if resolved else 0.0

    # Cold vs warm persistent store: same sweep twice against the same
    # store file, each on a fresh cluster (cold in-memory cache both
    # times, so the second run isolates the store tier).
    store_path = store_dir / "sweep_store.sqlite"
    cold_reports, cold_seconds, cold_stats = _run_sweep(
        "serial", make_queries, qps_points, service_store=store_path)
    warm_reports, warm_seconds, warm_stats = _run_sweep(
        "serial", make_queries, qps_points, service_store=store_path)
    assert warm_reports == cold_reports, \
        "warm-store sweep reports diverged from the cold run"
    assert warm_stats["exact_simulations"] == 0, \
        "warm-store sweep ran %d exact simulations (expected zero)" \
        % warm_stats["exact_simulations"]
    assert warm_stats["store"]["misses"] == 0, \
        "warm-store sweep missed the store %d times (expected zero)" \
        % warm_stats["store"]["misses"]
    stats_records["sweep-store-cold"] = cold_stats
    stats_records["sweep-store-warm"] = warm_stats
    entry["store"] = {
        "entries": warm_stats["store"]["entries"],
        "cold_seconds": round(cold_seconds, 5),
        "warm_seconds": round(warm_seconds, 5),
        "warm_speedup": round(cold_seconds / warm_seconds, 3),
    }
    return entry, stats_records


def compute_simulator_perf():
    report = {"mode": MODE, "kernel_flavor": kernels.active_flavor(),
              "workloads": {}}
    for kind, requests in _workloads().items():
        with build_bench_system(
                "recnmp-opt", num_dimms=4, ranks_per_dimm=2,
                compare_baseline=False) as single_system:
            single_result, single_seconds = _timed(single_system, requests)
        lookups = single_result.num_lookups
        entry = {
            "num_lookups": lookups,
            "single": _single_fields(single_result),
            "single_seconds": round(single_seconds, 5),
            "single_insts_per_sec": round(lookups / single_seconds, 1),
            "kernel": _kernel_comparison(requests),
            "multi4_backends": {},
        }
        for backend in BACKENDS:
            with build_bench_system(
                    "recnmp-opt-4ch", num_channels=4, num_dimms=1,
                    ranks_per_dimm=2, compare_baseline=False,
                    backend=backend) as system:
                system.run(requests)  # warm-up (spins up worker pools)
                result, seconds = _timed(system, requests)
            entry["multi4_backends"][backend] = {
                "seconds": round(seconds, 5),
                "insts_per_sec": round(lookups / seconds, 1),
                "fields": _multi_fields(result),
            }
        serial_seconds = entry["multi4_backends"]["serial"]["seconds"]
        for backend in BACKENDS:
            backend_entry = entry["multi4_backends"][backend]
            backend_entry["scaling_vs_serial"] = round(
                serial_seconds / backend_entry["seconds"], 3)
        report["workloads"][kind] = entry
    report["baseline"] = _baseline_comparison()
    report["node8"] = _node_parallel_comparison()
    with tempfile.TemporaryDirectory(prefix="repro-sweep-store-") as tmp:
        report["sweep"], report["sweep_service_stats"] = \
            _sweep_comparison(Path(tmp))
    return report


def _load_reference():
    if not REFERENCE_PATH.exists():
        return None
    return json.loads(REFERENCE_PATH.read_text())


def _maybe_write_reference(reference, report):
    """Refresh the ``recorded`` throughput floor for the current mode."""
    if not WRITE_REFERENCE or reference is None:
        return
    recorded = reference.setdefault(MODE, {}).setdefault("recorded", {})
    for kind, entry in report["workloads"].items():
        recorded[kind] = {
            "single_insts_per_sec": entry["single_insts_per_sec"],
            "multi4_process_seconds":
                entry["multi4_backends"]["process"]["seconds"],
            "kernel": entry["kernel"],
        }
    recorded["baseline"] = {
        "num_accesses": report["baseline"]["num_accesses"],
        "us_per_access": report["baseline"]["us_per_access"],
    }
    recorded["node8"] = {
        "kernel_flavor": report["kernel_flavor"],
        "serial_seconds":
            report["node8"]["backends"]["serial"]["seconds"],
        "process_seconds":
            report["node8"]["backends"]["process"]["seconds"],
        "parallel_speedup": report["node8"]["parallel_speedup"],
        "cpu_count": os.cpu_count(),
    }
    sweep = report["sweep"]
    recorded["sweep"] = {
        "num_points": sweep["num_points"],
        "serial_points_per_sec":
            sweep["backends"]["serial"]["points_per_sec"],
        "parallel_speedup": sweep["parallel_speedup"],
        "dedup_ratio": sweep["dedup_ratio"],
        "warm_speedup": sweep["store"]["warm_speedup"],
        "cpu_count": os.cpu_count(),
    }
    REFERENCE_PATH.write_text(json.dumps(reference, indent=2) + "\n")


def bench_simulator_perf(benchmark):
    report = benchmark.pedantic(compute_simulator_perf, rounds=1,
                                iterations=1)
    reference = _load_reference()
    _maybe_write_reference(reference, report)
    rows = []
    for kind, entry in report["workloads"].items():
        rows.append((kind, "single", entry["single_seconds"],
                     entry["single_insts_per_sec"], "-"))
        kernel = entry["kernel"]
        if kernel:
            rows.append((kind, "single/python",
                         kernel["python_seconds"],
                         round(entry["num_lookups"]
                               / kernel["python_seconds"], 1),
                         "%.2fx %s" % (kernel["speedup_vs_python"],
                                       kernel["flavor"])))
        for backend in BACKENDS:
            backend_entry = entry["multi4_backends"][backend]
            rows.append((kind, "4ch/" + backend, backend_entry["seconds"],
                         backend_entry["insts_per_sec"],
                         backend_entry["scaling_vs_serial"]))
    baseline = report["baseline"]
    rows.append(("fig16", "ddr4-baseline", baseline["seconds"],
                 "%.1f us/access" % baseline["us_per_access"], "-"))
    node8 = report["node8"]
    for backend in BACKENDS:
        rows.append(("batch", "8node/" + backend,
                     node8["backends"][backend]["seconds"], "-",
                     node8["parallel_speedup"]
                     if backend == "process" else "-"))
    sweep = report["sweep"]
    for backend in SWEEP_BACKENDS:
        rows.append(("sweep", "%dpt/%s" % (sweep["num_points"], backend),
                     sweep["backends"][backend]["seconds"],
                     "%.2f pts/s"
                     % sweep["backends"][backend]["points_per_sec"],
                     sweep["parallel_speedup"]
                     if backend != "serial" else "-"))
    rows.append(("sweep", "store/cold", sweep["store"]["cold_seconds"],
                 "-", "-"))
    rows.append(("sweep", "store/warm", sweep["store"]["warm_seconds"],
                 "-", sweep["store"]["warm_speedup"]))
    print()
    print(format_table(
        "Exact-simulator throughput (%s mode, best of %d, kernels: %s)"
        % (MODE, REPEATS, report["kernel_flavor"]),
        ["workload", "config", "seconds", "insts/sec", "vs serial"], rows))
    print("sweep dedup: %d/%d batches exact-simulated (dedup ratio %.2f), "
          "warm store re-run: %d exact sims"
          % (sweep["exact_simulations"], sweep["batches_resolved"],
             sweep["dedup_ratio"],
             report["sweep_service_stats"]["sweep-store-warm"]
             ["exact_simulations"]))
    print("SIM_PERF_JSON: %s" % json.dumps(report))
    print("SERVICE_STATS_JSON: %s"
          % json.dumps(report["sweep_service_stats"]))

    for kind, entry in report["workloads"].items():
        # Backend equivalence: every backend must report identical cycles
        # and statistics for the same workload.
        serial_fields = entry["multi4_backends"]["serial"]["fields"]
        for backend in BACKENDS[1:]:
            assert entry["multi4_backends"][backend]["fields"] == \
                serial_fields, (kind, backend)
        # Kernel-vs-python speedup targets (full scale only: smoke
        # workloads are too small for stable timing).
        kernel = entry["kernel"]
        if kernel and not SMOKE_MODE:
            if kernel["flavor"] == "numba":
                assert kernel["speedup_vs_python"] >= NUMBA_KERNEL_TARGET, \
                    "numba kernel speedup %.2fx below the %.1fx target " \
                    "on %s" % (kernel["speedup_vs_python"],
                               NUMBA_KERNEL_TARGET, kind)

    # Node-level fan-out target: only meaningful with one core per node.
    if not SMOKE_MODE and os.cpu_count() and os.cpu_count() >= NODE_COUNT:
        assert node8["parallel_speedup"] >= NODE_PARALLEL_TARGET, \
            "8-node process fan-out %.2fx below the %.1fx target " \
            "on a %d-core host" % (node8["parallel_speedup"],
                                   NODE_PARALLEL_TARGET, os.cpu_count())
    elif node8["parallel_speedup"] < 1.0:
        print("note: 8-node fan-out speedup %.2fx on a %s-core host "
              "(node-level parallelism needs cores to pay off)"
              % (node8["parallel_speedup"], os.cpu_count()))

    # Sweep-level fan-out target: needs a core per in-flight point.
    if not SMOKE_MODE and os.cpu_count() and os.cpu_count() >= 4:
        assert sweep["parallel_speedup"] >= SWEEP_SPEEDUP_TARGET, \
            "process sweep %.2fx below the %.1fx target on a %d-core " \
            "host" % (sweep["parallel_speedup"], SWEEP_SPEEDUP_TARGET,
                      os.cpu_count())
    elif sweep["parallel_speedup"] < 1.0:
        print("note: process sweep speedup %.2fx on a %s-core host "
              "(sweep-level parallelism needs cores to pay off)"
              % (sweep["parallel_speedup"], os.cpu_count()))

    if reference is None:
        return
    mode_reference = reference.get(MODE)
    if not mode_reference:
        return
    for kind, entry in report["workloads"].items():
        # Cycle-exactness vs the pre-optimisation serial simulator.
        pinned = mode_reference["workloads"][kind]["exact"]
        assert entry["single"] == pinned["single"], \
            "single-channel results diverged from the pre-optimisation " \
            "simulator on %s" % kind
        assert entry["multi4_backends"]["serial"]["fields"] == \
            pinned["multi4"], \
            "multi-channel results diverged from the pre-optimisation " \
            "simulator on %s" % kind
        # Loose CI floor vs the recorded post-optimisation throughput.
        recorded = mode_reference.get("recorded", {}).get(kind)
        if recorded and not WRITE_REFERENCE:
            floor = recorded["single_insts_per_sec"] / REGRESSION_FLOOR
            assert entry["single_insts_per_sec"] >= floor, \
                "exact-sim throughput on %s regressed >%.0fx below the " \
                "recorded %.0f insts/sec (if this host is legitimately " \
                "slower than the reference machine, refresh the floor " \
                "with REPRO_PERF_WRITE_REFERENCE=1)" \
                % (kind, REGRESSION_FLOOR, recorded["single_insts_per_sec"])
        # Full-scale PR speedup targets vs the pre-PR measurements.
        # Note: on single-core hosts the 4-channel gain comes entirely
        # from the hot-path rewrite (process dispatch cannot beat serial
        # with one core); the per-backend scaling_vs_serial numbers in
        # the record are what show whether process dispatch itself pays
        # off on a given machine, so surface them when it does not.
        pre_pr = mode_reference.get("pre_pr", {}).get(kind)
        if pre_pr and not SMOKE_MODE:
            process_scaling = \
                entry["multi4_backends"]["process"]["scaling_vs_serial"]
            if os.cpu_count() and os.cpu_count() >= 4 and \
                    process_scaling < 1.0:
                print("note: process backend scaling_vs_serial=%.2f on a "
                      "%d-core host (dispatch overhead exceeds the "
                      "parallel gain at this workload size)"
                      % (process_scaling, os.cpu_count()))
            single_speedup = entry["single_insts_per_sec"] \
                / pre_pr["single_insts_per_sec"]
            multi_speedup = pre_pr["multi4_seconds"] \
                / entry["multi4_backends"]["process"]["seconds"]
            print("%s: single-channel %.2fx vs pre-PR, 4ch process %.2fx "
                  "vs pre-PR" % (kind, single_speedup, multi_speedup))
            assert single_speedup >= SINGLE_SPEEDUP_TARGET, \
                "single-channel speedup %.2fx below the %.1fx target on " \
                "%s" % (single_speedup, SINGLE_SPEEDUP_TARGET, kind)
            assert multi_speedup >= MULTI_SPEEDUP_TARGET, \
                "4-channel process-backend speedup %.2fx below the %.1fx " \
                "target on %s" % (multi_speedup, MULTI_SPEEDUP_TARGET, kind)
    # Loose CI floor on the DDR4 baseline's host cost per access.
    recorded_baseline = mode_reference.get("recorded", {}).get("baseline")
    if recorded_baseline and not WRITE_REFERENCE:
        assert baseline["num_accesses"] == \
            recorded_baseline["num_accesses"], baseline
        ceiling = recorded_baseline["us_per_access"] * REGRESSION_FLOOR
        assert baseline["us_per_access"] <= ceiling, \
            "DDR4 baseline cost %.1f us/access regressed >%.0fx above " \
            "the recorded %.1f us/access (refresh with " \
            "REPRO_PERF_WRITE_REFERENCE=1 if this host is legitimately " \
            "slower)" % (baseline["us_per_access"], REGRESSION_FLOOR,
                         recorded_baseline["us_per_access"])
    # Loose CI floor on the serial sweep rate, same mechanism as the
    # single-channel throughput floor above.
    recorded_sweep = mode_reference.get("recorded", {}).get("sweep")
    if recorded_sweep and not WRITE_REFERENCE:
        floor = recorded_sweep["serial_points_per_sec"] / REGRESSION_FLOOR
        measured = sweep["backends"]["serial"]["points_per_sec"]
        assert measured >= floor, \
            "serial sweep rate %.2f points/sec regressed >%.0fx below " \
            "the recorded %.2f points/sec (refresh with " \
            "REPRO_PERF_WRITE_REFERENCE=1 if this host is legitimately " \
            "slower)" % (measured, REGRESSION_FLOOR,
                         recorded_sweep["serial_points_per_sec"])
