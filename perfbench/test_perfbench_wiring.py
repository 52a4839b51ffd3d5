"""Wiring test: every workload, at tiny size, emits every metric.

Each workload runs once untraced and once traced on tiny inputs.  The
metric names and units must match ``BENCHMARK.json`` exactly, and the
metrics of the layers a workload exercises (the ledger table in
``README.md``) must read non-zero on it.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import perf_runner  # noqa: E402
import perf_layers  # noqa: E402
import perf_workloads  # noqa: E402
from repro.core import kernels  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: Per-layer metrics each workload must move (non-zero on it).
EXERCISED = {
    "serve-interp-stream": (
        "query_columns.take_us_per_query", "batcher.form_us_per_query",
        "service_model.interp_us_per_batch",
        "event_kernels.queue_us_per_batch", "events.summarize_us_per_batch",
        "cluster.simulate_self_us_per_query",
        "service_model.calibration_sims", "batcher.queries_per_batch"),
    "serve-overload-edf": (
        "query_columns.take_us_per_query", "slo.assign_us_per_query",
        "admission.mask_us_per_query", "batcher.form_us_per_query",
        "service_model.interp_us_per_batch",
        "event_kernels.queue_us_per_batch", "events.summarize_us_per_batch",
        "cluster.simulate_self_us_per_query",
        "service_model.calibration_sims", "admission.shed_frac"),
    "serve-exact-cold": (
        "cluster.simulate_self_us_per_query", "cluster.resolve_us_per_batch",
        "service_store.us_per_batch", "systems.run_us_per_inst",
        "simulator.reset_us_per_inst", "packet_generator.us_per_inst",
        "memory_controller.dispatch_us_per_inst",
        "rank_nmp.execute_us_per_inst", "cluster.exact_sims_per_batch",
        "packet_generator.insts_per_packet", "rank_nmp.cache_hit_rate"),
    "sim-fig16-ddr4": (
        "systems.run_us_per_inst", "simulator.reset_us_per_inst",
        "packet_generator.us_per_inst",
        "memory_controller.dispatch_us_per_inst",
        "rank_nmp.execute_us_per_inst", "dram.baseline_us_per_access",
        "packet_generator.insts_per_packet", "rank_nmp.packed_frac",
        "rank_nmp.cache_hit_rate", "dram.speedup_vs_ddr4"),
}


def check_metrics(result, declared):
    """Fail unless ``result`` reports exactly the ``declared`` metrics,
    each a finite number with the declared unit."""
    names = {entry["name"]: entry["unit"] for entry in declared}
    reported = json.loads(result.line())["metrics"]
    missing = sorted(set(names) - set(reported))
    extra = sorted(set(reported) - set(names))
    assert not missing and not extra, \
        "missing metrics %s, undeclared metrics %s" % (missing, extra)
    for name, entry in reported.items():
        assert entry["unit"] == names[name], name
        assert isinstance(entry["value"], (int, float)) \
            and math.isfinite(entry["value"]), name


@pytest.fixture(scope="module", params=sorted(perf_workloads.WORKLOADS))
def runs(request, tmp_path_factory):
    workload = perf_workloads.tiny(request.param)
    work_dir = tmp_path_factory.mktemp("perfbench")
    measured = perf_runner.measure(workload, perf_workloads.DEFAULT_SEED,
                                   0.0, work_dir=work_dir, setup_reps=1,
                                   setup_budget_s=0.0, min_reps=1)
    traced = perf_runner.trace(workload, perf_workloads.DEFAULT_SEED, 0.0,
                               work_dir=work_dir, min_reps=1)
    return request.param, measured, traced


def test_catalogue_matches_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] \
        == list(perf_workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == perf_runner.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} \
        == perf_layers.metric_units()
    assert set(EXERCISED) == set(perf_workloads.WORKLOADS)


def test_every_end_to_end_metric_reported(runs):
    _, measured, _ = runs
    assert measured.correct, measured.problems
    check_metrics(measured, BENCHMARK["end_to_end"])
    assert all(value > 0 for value in measured.metrics.values())


def test_every_per_layer_metric_reported(runs):
    name, _, traced = runs
    assert traced.correct, traced.problems
    check_metrics(traced, BENCHMARK["per_layer"])
    idle = [metric for metric in EXERCISED[name]
            if not traced.metrics[metric] > 0]
    assert not idle, "%s does not exercise %s" % (name, idle)


def test_packed_path_sides(runs):
    name, _, traced = runs
    packed = traced.metrics["rank_nmp.packed_frac"]
    if name == "sim-fig16-ddr4":
        assert packed == 1.0
    elif name == "serve-exact-cold" and kernels.active_flavor() != "numba":
        assert packed == 0.0


def test_a_missing_metric_fails_the_check(runs):
    _, measured, _ = runs
    metrics = dict(measured.metrics)
    del metrics["setup_s"]
    broken = dataclasses.replace(measured, metrics=metrics)
    with pytest.raises(AssertionError, match="setup_s"):
        check_metrics(broken, BENCHMARK["end_to_end"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "%s/run.py" % HERE.name, "--workload",
         "serve-interp-stream", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
