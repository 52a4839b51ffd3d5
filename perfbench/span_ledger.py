"""Outside-in span recording: wrap public functions, time them, restore.

The benchmark measures each layer of the program from outside.  A
:class:`Probe` names one public function or method (``owner`` is the
class or module that holds it, ``attribute`` its name) and the layer it
belongs to.  :func:`installed` swaps every probe's target for a timing
wrapper that records a span (name, start, end, parent) into a
:class:`SpanRecorder`, and puts the originals back on exit, whatever
happened inside.  Spans stay in memory; the caller writes them out when
the run ends.

A span's *self time* is its duration minus the durations of its direct
children.  Execution is single-threaded, so children never overlap and
the subtraction covers exactly the part of the interval they occupy.
"""

import contextlib
import functools
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Probe:
    """One wrapped entry point.

    ``count`` optionally tallies work units after each call:
    ``count(counts, args, kwargs, result)`` adds to the recorder's
    :class:`~collections.Counter`.
    """

    owner: object
    attribute: str
    layer: str
    count: Optional[Callable] = None


class SpanRecorder:
    """In-memory span log of one traced run.

    ``spans`` holds ``[layer, start, end, parent]`` lists; ``parent`` is
    the index of the enclosing span or ``None`` at top level.  Times are
    host seconds from ``clock``.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def begin(self, layer):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([layer, self.clock(), None, parent])
        self._stack.append(index)
        return index

    def end(self, index):
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError("span %d closed out of order" % index)
        self._stack.pop()
        self.spans[index][2] = self.clock()


def self_times(spans):
    """Per-span self time: duration minus the direct children's."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - covered[index]
            for index, (_, start, end, _) in enumerate(spans)]


def layer_self_seconds(spans):
    """Total self time per layer name."""
    totals = Counter()
    for (layer, _, _, _), seconds in zip(spans, self_times(spans)):
        totals[layer] += seconds
    return totals


def top_level_seconds(spans):
    """Wall time covered by top-level spans (nothing encloses them)."""
    return sum(end - start for _, start, end, parent in spans
               if parent is None)


def _timed(original, recorder, probe):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        index = recorder.begin(probe.layer)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.end(index)
        if probe.count is not None:
            probe.count(recorder.counts, args, kwargs, result)
        return result

    return wrapper


def _raw_attribute(owner, attribute):
    """The attribute as stored on ``owner`` (no descriptor binding)."""
    if isinstance(owner, type):
        return owner.__dict__[attribute]
    return getattr(owner, attribute)


@contextlib.contextmanager
def installed(recorder, probes):
    """Wrap every probe's target for the duration of the block.

    Each target is wrapped once, even when listed twice.  On exit every
    original is restored and checked by identity; a target that cannot
    be restored raises instead of leaving a wrapper behind.
    """
    saved = []
    try:
        for probe in probes:
            key = (probe.owner, probe.attribute)
            if any(key == (owner, attribute)
                   for owner, attribute, _ in saved):
                continue
            original = _raw_attribute(probe.owner, probe.attribute)
            setattr(probe.owner, probe.attribute,
                    _timed(original, recorder, probe))
            saved.append((probe.owner, probe.attribute, original))
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
        for owner, attribute, original in saved:
            if _raw_attribute(owner, attribute) is not original:
                raise RuntimeError("could not restore %r.%s"
                                   % (owner, attribute))
