"""Tests of the span recorder and the probes that feed the ledger."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import perf_layers  # noqa: E402
import perf_workloads  # noqa: E402
import span_ledger  # noqa: E402


class _Clock:
    """Deterministic clock: each call returns the next listed time."""

    def __init__(self, times):
        self._times = iter(times)

    def __call__(self):
        return next(self._times)


def _synthetic_recorder():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9];
    # e [11, 12] is a second top-level span of layer "a".
    recorder = span_ledger.SpanRecorder(
        clock=_Clock([0, 1, 2, 3, 4, 5, 9, 10, 11, 12]))
    a = recorder.begin("a")
    b = recorder.begin("b")
    c = recorder.begin("c")
    recorder.end(c)
    recorder.end(b)
    d = recorder.begin("d")
    recorder.end(d)
    recorder.end(a)
    e = recorder.begin("a")
    recorder.end(e)
    return recorder


def test_self_time_subtracts_direct_children_only():
    spans = _synthetic_recorder().spans
    assert [parent for _, _, _, parent in spans] == [None, 0, 1, 0, None]
    assert span_ledger.self_times(spans) == [3, 2, 1, 4, 1]
    assert span_ledger.layer_self_seconds(spans) == {"a": 4, "b": 2,
                                                     "c": 1, "d": 4}
    assert span_ledger.top_level_seconds(spans) == 11


def test_layer_self_times_sum_to_top_level_time():
    spans = _synthetic_recorder().spans
    assert sum(span_ledger.layer_self_seconds(spans).values()) \
        == span_ledger.top_level_seconds(spans)


def test_spans_must_close_innermost_first():
    recorder = span_ledger.SpanRecorder()
    outer = recorder.begin("outer")
    recorder.begin("inner")
    with pytest.raises(RuntimeError):
        recorder.end(outer)


def _raw_targets(probes):
    return {(probe.owner, probe.attribute):
            span_ledger._raw_attribute(probe.owner, probe.attribute)
            for probe in probes}


def test_wrappers_restored_even_when_the_run_raises():
    probes = perf_layers.probes()
    before = _raw_targets(probes)
    recorder = span_ledger.SpanRecorder()
    with pytest.raises(ValueError):
        with span_ledger.installed(recorder, probes):
            during = _raw_targets(probes)
            assert all(during[key] is not original
                       for key, original in before.items())
            raise ValueError("simulated failure inside a traced run")
    after = _raw_targets(probes)
    assert all(after[key] is original for key, original in before.items())


def test_every_layer_has_a_probe():
    layers = {probe.layer for probe in perf_layers.probes()}
    assert layers == {layer for _, layer, _, _ in perf_layers.TIME_METRICS}


def test_traced_output_equals_untraced(tmp_path):
    workload = perf_workloads.tiny("serve-exact-cold")
    state = workload.setup(perf_workloads.DEFAULT_SEED, tmp_path)
    try:
        workload.inputs(state)
        workload.before_rep(state)
        plain = workload.digest(workload.run(state))
        probes = perf_layers.probes()
        before = _raw_targets(probes)
        recorder = span_ledger.SpanRecorder()
        workload.before_rep(state)
        with span_ledger.installed(recorder, probes):
            outcome = workload.run(state)
        assert workload.check(state, outcome) == []
        assert workload.digest(outcome) == plain
        after = _raw_targets(probes)
        assert all(after[key] is original
                   for key, original in before.items())
    finally:
        workload.close(state)
    layers = {layer for layer, _, _, _ in recorder.spans}
    assert {"cluster.simulate", "cluster.resolve", "service_store",
            "systems.run", "rank_nmp.execute"} <= layers
    assert recorder.counts["insts"] == state.lookups
