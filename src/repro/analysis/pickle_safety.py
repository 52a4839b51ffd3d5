"""Rule ``pickle-safety``: process-backend payload classes must pickle.

The process backend ships work through ``pickle``:
channel work units carry :class:`SLSRequest` objects, node jobs carry a
registry spec, and parallel sweeps pickle the whole parameter set --
queries, frontend, sharder, admission controller, SLO policy, service
model, service store.  A field holding a lambda, a lock, a live sqlite
connection or a thread pool turns that into an opaque
``BrokenProcessPool`` at dispatch time (the dynamic preflight catches
some of it, but only on the paths it guards).

This rule checks statically: every class defined in a *payload module*
(the modules whose instances cross the process boundary, listed in
:data:`PAYLOAD_MODULE_SUFFIXES`) must not assign a lambda, a
``threading`` synchronisation primitive, an executor/pool, or a
``sqlite3.connect(...)`` result to ``self.<field>`` -- unless the class
defines ``__getstate__`` / ``__reduce__`` that takes responsibility for
dropping the unpicklable state (the generalisation of the
``InterpolatingServiceModel`` grid-cache fix and the
``ServiceTimeStore`` pickle-as-path contract).
"""

import ast

from repro.analysis.linter import Rule, register_rule

#: Modules whose class instances are pickled into worker processes
#: (backend work units, sweep specs and parameters, service models).
PAYLOAD_MODULE_SUFFIXES = (
    "repro/serving/cluster.py",
    "repro/serving/arrival.py",
    "repro/serving/batcher.py",
    "repro/serving/sharding.py",
    "repro/serving/admission.py",
    "repro/serving/slo.py",
    "repro/perf/service_model.py",
    "repro/perf/service_store.py",
    "repro/dlrm/operators.py",
)

#: Call targets whose results never survive pickling.
_RISKY_CALLS = {
    "Lock": "a lock",
    "RLock": "a lock",
    "Condition": "a condition variable",
    "Semaphore": "a semaphore",
    "BoundedSemaphore": "a semaphore",
    "Barrier": "a barrier",
    "connect": "a database connection",
    "ThreadPoolExecutor": "a thread pool",
    "ProcessPoolExecutor": "a process pool",
    "Pool": "a worker pool",
    "SharedMemory": "a shared-memory handle",
}

_ESCAPE_HATCHES = ("__getstate__", "__reduce__", "__reduce_ex__")


def _is_payload_module(path):
    text = path.as_posix()
    return any(text.endswith(suffix) for suffix in PAYLOAD_MODULE_SUFFIXES)


def _risky_value(value):
    """Why an assigned expression cannot pickle, or ``None``."""
    if isinstance(value, ast.Lambda):
        return "a lambda"
    if isinstance(value, ast.Call):
        func = value.func
        name = func.attr if isinstance(func, ast.Attribute) else \
            func.id if isinstance(func, ast.Name) else None
        if name in _RISKY_CALLS:
            return _RISKY_CALLS[name]
    return None


@register_rule
class PickleSafetyRule(Rule):
    name = "pickle-safety"
    description = ("classes in process-backend payload modules must not "
                   "hold lambdas/locks/connections/pools without a "
                   "__getstate__ that drops them")

    def check_module(self, module):
        if not _is_payload_module(module.path):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    def _check_class(self, module, cls):
        has_escape = any(
            isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name in _ESCAPE_HATCHES
            for stmt in cls.body)
        if has_escape:
            return
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(method):
                if not isinstance(node, ast.Assign):
                    continue
                fields = [target.attr for target in node.targets
                          if isinstance(target, ast.Attribute)
                          and isinstance(target.value, ast.Name)
                          and target.value.id == "self"]
                if not fields:
                    continue
                why = _risky_value(node.value)
                if why is not None:
                    yield module.finding(
                        self.name, node,
                        "payload class %r stores %s in self.%s but "
                        "defines no __getstate__ -- it cannot cross the "
                        "process-backend boundary (pickle); drop the "
                        "field in __getstate__ like "
                        "InterpolatingServiceModel/ServiceTimeStore do"
                        % (cls.name, why, fields[0]))
