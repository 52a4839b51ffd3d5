"""Rule ``obs-hygiene``: library code reports through obs, not print().

With :mod:`repro.obs` in place, every number a component wants seen has
a proper sink: counters/gauges/histograms go into a
:class:`~repro.obs.metrics.MetricsRegistry`, human-readable tables come
from ``format_metrics_table`` (which *returns* a string), and traces go
through the exporters.  A bare ``print()``
inside ``repro`` library code bypasses all of that -- it interleaves
with real CLI output, cannot be captured by callers, and silently
couples library behaviour to a terminal.

Scope: every module under a ``repro`` package **except** the CLI entry
point ``__main__.py``, whose whole job is terminal output.  Writing
directly to ``sys.stdout`` / ``sys.stderr`` is flagged for the same
reason.  Legitimate exceptions (e.g. a debugging hook behind an
explicit verbosity flag) take the usual pragma::

    print(line)  # repro-lint: allow-obs-hygiene (reason)
"""

import ast

from repro.analysis.linter import Rule, register_rule

#: Stream objects whose ``.write`` is terminal output in disguise.
_STREAM_NAMES = {"stdout", "stderr"}


def _in_library(path):
    """True for modules under a ``repro`` package, minus the CLI."""
    if path.name == "__main__.py":
        return False
    return "repro" in path.parts[:-1]


def _is_stream_write(func):
    """``sys.stdout.write`` / ``sys.stderr.write`` attribute chains."""
    if not (isinstance(func, ast.Attribute) and func.attr == "write"):
        return False
    target = func.value
    return (isinstance(target, ast.Attribute)
            and target.attr in _STREAM_NAMES
            and isinstance(target.value, ast.Name)
            and target.value.id == "sys")


@register_rule
class ObsHygieneRule(Rule):
    name = "obs-hygiene"
    description = ("library code must publish through the obs "
                   "metrics/exporter API, not bare print()")

    def check_module(self, module):
        if not _in_library(module.path):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) \
                    and node.func.id == "print":
                yield module.finding(
                    self.name, node,
                    "bare print() in library code -- publish via a "
                    "MetricsRegistry / Tracer and let callers render "
                    "with repro.obs.exporters (CLI __main__.py owns "
                    "the terminal)")
            elif _is_stream_write(node.func):
                yield module.finding(
                    self.name, node,
                    "direct %s in library code -- return strings or "
                    "publish through repro.obs instead of writing to "
                    "the terminal" % ast.unparse(node.func))
