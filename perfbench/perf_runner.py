"""One benchmark run: set-up, warm-up, timed repetitions, checks, ledger.

``--trace 0`` measures the end-to-end metrics with nothing wrapped:
set-up is repeated and its median reported, one untimed warm-up
repetition fills lazy state, then repetitions run until the time budget
is spent and the median repetition sets the rates.  A host probe
(:mod:`host_probe`) runs after every set-up and every repetition; each
time is scaled by the probe times on either side of it to seconds on the
reference host, so a phase of load from other tenants of the shared host
moves the metrics little.  The raw times are printed and recorded.

``--trace 1`` measures the per-layer ledger: a stretch of untraced
repetitions gives the reference time, then repetitions with every layer
probe installed (:mod:`perf_layers`) give each layer's self time.  The
probes are removed after each traced repetition, and a traced output
must equal the untraced one.

Every repetition's output is checked outside the timed region.
"""

import json
import os
import platform
import resource
import statistics
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core import kernels
from repro.serving import event_kernels

import host_probe
import perf_layers
import perf_workloads
import span_ledger

HERE = Path(__file__).resolve().parent
#: Run records, ledgers and scratch stores (ignored by git).
OUT_DIR = HERE / "_out"
PINS_PATH = HERE / "pins.json"

#: Set-up repeats until both bounds are met (or ``MAX_SETUP_REPS``);
#: the median is reported.
SETUP_REPS = 3
SETUP_BUDGET_S = 1.0
MAX_SETUP_REPS = 25
#: Timed repetitions per run, however long each takes.
MIN_REPS = 3

#: End-to-end metrics with their units.
END_TO_END = {
    "queries_per_s": "1/s",
    "lookups_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def environment():
    """What the numbers depend on besides the code."""
    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "nproc": len(affinity(0)) if affinity else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": numba_version,
        "kernel_flavor": kernels.active_flavor(),
        "event_kernel_flavor": event_kernels.active_flavor(),
    }


def peak_rss_mb():
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_pins():
    return json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}


@dataclass
class Rep:
    """One repetition: its time, check result and work counts."""

    seconds: float = None
    problems: list = field(default_factory=list)
    units: dict = None
    recorder: object = None
    #: Mean probe time around the repetition (untraced runs only).
    probe_s: float = None

    @property
    def reference_seconds(self):
        """The repetition's time scaled to the reference host."""
        return self.seconds * host_probe.REFERENCE_S / self.probe_s

    @property
    def ok(self):
        return self.seconds is not None and not self.problems


def _run_rep(workload, state, reference, recorder=None):
    """Reset (untimed), run (timed), check (untimed) one repetition."""
    try:
        workload.before_rep(state)
        if recorder is None:
            start = time.perf_counter()
            outcome = workload.run(state)
            seconds = time.perf_counter() - start
        else:
            with span_ledger.installed(recorder, perf_layers.probes()):
                start = time.perf_counter()
                outcome = workload.run(state)
                seconds = time.perf_counter() - start
        problems = workload.check(state, outcome)
        if workload.digest(outcome) != reference:
            problems.append("output differs from the warm-up repetition")
        units = workload.units(state, outcome)
    except Exception as error:  # one failed repetition is counted, not fatal
        traceback.print_exc()
        return Rep(problems=["raised %r" % error])
    return Rep(seconds, problems, units, recorder)


def _repeat(budget_s, min_reps, make_rep):
    """Repetitions until ``budget_s`` has passed and ``min_reps`` ran."""
    reps = []
    start = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - start < budget_s:
        reps.append(make_rep())
    return reps


def _warm_up(workload, state, seed, pins):
    """The untimed first repetition: reference digest and pin check."""
    workload.before_rep(state)
    outcome = workload.run(state)
    problems = workload.check(state, outcome)
    digest = workload.digest(outcome)
    pinned = (pins or {}).get(workload.name) \
        if seed == perf_workloads.DEFAULT_SEED else None
    if pinned is not None and digest != pinned:
        problems.append("output digest %s != pinned %s" % (digest, pinned))
    return digest, outcome, problems


@dataclass
class RunResult:
    """A run's result line plus what the report prints beside it."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict
    units: dict
    problems: list
    context: str
    digest: str
    record: dict

    def line(self):
        return json.dumps({
            "correct": self.correct, "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": self.units[name]}
                        for name, value in self.metrics.items()}})


def _result(reps, warm_problems, metrics, units, context, digest, record):
    failed = sum(not rep.ok for rep in reps)
    problems = list(warm_problems)
    for rep in reps:
        problems.extend(rep.problems)
    return RunResult(correct=not problems and not failed,
                     attempted=len(reps), failed=failed, metrics=metrics,
                     units=units, problems=problems, context=context,
                     digest=digest, record=record)


class _Probed:
    """Probe times around a sequence of timed steps: step ``i`` lies
    between probes ``i`` and ``i + 1``."""

    def __init__(self):
        self.probes = [host_probe.probe_seconds()]

    def after_step(self):
        """Probe once more; returns the mean probe around the last step."""
        self.probes.append(host_probe.probe_seconds())
        return (self.probes[-2] + self.probes[-1]) / 2.0


def measure(workload, seed, seconds, pins=None, work_dir=OUT_DIR,
            setup_reps=SETUP_REPS, setup_budget_s=SETUP_BUDGET_S,
            min_reps=MIN_REPS):
    """End-to-end metrics of one workload, nothing wrapped."""
    setup_times, setup_probes = [], []
    probed = _Probed()
    state = None
    while len(setup_times) < setup_reps or (
            sum(setup_times) < setup_budget_s
            and len(setup_times) < MAX_SETUP_REPS):
        if state is not None:
            workload.close(state)
        start = time.perf_counter()
        state = workload.setup(seed, work_dir)
        setup_times.append(time.perf_counter() - start)
        setup_probes.append(probed.after_step())
    try:
        workload.inputs(state)
        digest, outcome, warm_problems = _warm_up(workload, state, seed, pins)
        probed = _Probed()

        def probed_rep():
            rep = _run_rep(workload, state, digest)
            rep.probe_s = probed.after_step()
            return rep

        reps = _repeat(seconds, min_reps, probed_rep)
    finally:
        workload.close(state)
    good = [rep for rep in reps if rep.ok]
    if good:
        rep_s = statistics.median(rep.reference_seconds for rep in good)
        units = good[0].units
        rates = {"queries_per_s": units["queries"] / rep_s,
                 "lookups_per_s": units["lookups"] / rep_s}
    else:
        rates = {"queries_per_s": 0.0, "lookups_per_s": 0.0}
    setup_s = statistics.median(
        spent * host_probe.REFERENCE_S / probe
        for spent, probe in zip(setup_times, setup_probes))
    metrics = dict(rates, setup_s=setup_s, peak_rss_mb=peak_rss_mb())
    record = {"setup_s": setup_times, "setup_probe_s": setup_probes,
              "rep_s": [rep.seconds for rep in reps],
              "rep_probe_s": [rep.probe_s for rep in reps]}
    return _result(reps, warm_problems, metrics, END_TO_END,
                   workload.context(outcome), digest, record)


def trace(workload, seed, seconds, pins=None, work_dir=OUT_DIR,
          min_reps=MIN_REPS):
    """Per-layer ledger of one workload from traced repetitions."""
    state = workload.setup(seed, work_dir)
    try:
        calibration_sims = workload.calibration_sims(state)
        workload.inputs(state)
        digest, outcome, warm_problems = _warm_up(workload, state, seed, pins)
        plain = _repeat(seconds / 2.0, min_reps,
                        lambda: _run_rep(workload, state, digest))
        traced = _repeat(seconds / 2.0, 1, lambda: _run_rep(
            workload, state, digest, span_ledger.SpanRecorder()))
    finally:
        workload.close(state)
    self_seconds, counts, units = Counter(), Counter(), Counter()
    wall_s = covered_s = 0.0
    for rep in traced:
        if not rep.ok:
            continue
        spans = rep.recorder.spans
        self_seconds.update(span_ledger.layer_self_seconds(spans))
        counts.update(rep.recorder.counts)
        units.update(rep.units)
        wall_s += rep.seconds
        covered_s += span_ledger.top_level_seconds(spans)
    plain_s = [rep.seconds for rep in plain if rep.ok]
    traced_s = [rep.seconds for rep in traced if rep.ok]
    extra = {
        "calibration_sims": calibration_sims,
        "speedup_vs_ddr4": workload.speedup(outcome),
        "unattributed_frac": 1.0 - covered_s / wall_s if wall_s else 0.0,
        "trace_overhead_frac": min(traced_s) / min(plain_s) - 1.0
        if plain_s and traced_s else 0.0,
    }
    metrics = perf_layers.per_layer_metrics(self_seconds, units, counts,
                                            extra)
    first = next((rep for rep in traced if rep.ok), None)
    record = {
        "untraced_rep_s": plain_s, "traced_rep_s": traced_s,
        "traced_wall_s": wall_s,
        "layer_self_s": dict(sorted(self_seconds.items())),
        "units": dict(units), "counts": dict(counts),
        "spans": _relative_spans(first.recorder.spans) if first else [],
    }
    return _result(plain + traced, warm_problems, metrics,
                   perf_layers.metric_units(), workload.context(outcome),
                   digest, record)


def _relative_spans(spans):
    """Spans with times in microseconds from the first span's start."""
    origin = spans[0][1] if spans else 0.0
    return [[layer, (start - origin) * 1e6, (end - origin) * 1e6, parent]
            for layer, start, end, parent in spans]


def ledger_table(record):
    """Layers by self time, with their share of the traced wall time."""
    wall = record["traced_wall_s"] or 1.0
    lines = ["layer                          self ms   share"]
    for layer, seconds in sorted(record["layer_self_s"].items(),
                                 key=lambda item: -item[1]):
        lines.append("%-28s %9.2f  %5.1f%%"
                     % (layer, seconds * 1e3, 100.0 * seconds / wall))
    return "\n".join(lines)


def main(args):
    """Run ``args.workload`` and print the report; returns the exit code."""
    workload = perf_workloads.WORKLOADS[args.workload]
    env = environment()
    OUT_DIR.mkdir(exist_ok=True)
    print("env: %s" % json.dumps(env, sort_keys=True), flush=True)
    run = trace if args.trace else measure
    result = run(workload, args.seed, args.seconds, pins=load_pins())
    record = dict(result.record, workload=workload.name, seed=args.seed,
                  trace=args.trace, env=env, metrics=result.metrics,
                  correct=result.correct, problems=result.problems)
    path = OUT_DIR / ("%s-seed%d-trace%d.json"
                      % (workload.name, args.seed, args.trace))
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(result.context)
    print("output digest: %s" % result.digest)
    print("output check: %s (%d of %d timed repetitions failed)"
          % ("ok" if result.correct else "FAILED", result.failed,
             result.attempted))
    print("failed_runs_frac: %.4f" % (result.failed / result.attempted))
    for problem in sorted(set(result.problems)):
        print("  problem: %s" % problem)
    if args.trace:
        print(ledger_table(result.record))
    else:
        record = result.record
        times = [seconds for seconds in record["rep_s"] if seconds]
        if times:
            print("raw host times: %d repetitions, fastest %.4f s, "
                  "median %.4f s; probe median %.4f s (reference %.4f s); "
                  "set-up median %.4f s"
                  % (len(times), min(times), statistics.median(times),
                     statistics.median(record["rep_probe_s"]),
                     host_probe.REFERENCE_S,
                     statistics.median(record["setup_s"])))
    for name, value in result.metrics.items():
        print("%-40s %14.6g %s" % (name, value, result.units[name]))
    print("record: %s" % path.relative_to(HERE.parent))
    print(result.line(), flush=True)
    return 0
