"""Rule ``determinism``: seeded RNGs, no wall clocks, no set iteration.

The whole repo's bit-identity story (kernel flavor parity, backend
equality, byte-identical sweep reports) collapses if any simulation
input depends on process-local state.  Three statically checkable
classes of violation:

* **Unseeded RNG construction** -- ``random.Random()``,
  ``numpy.random.default_rng()`` or ``RandomState()`` with no seed
  draws from OS entropy, so two runs of the same composition diverge.
  Flagged everywhere (benchmarks included: an unseeded benchmark cannot
  assert byte-identity across backends).
* **Wall-clock reads in simulation paths** -- ``time.time()``,
  ``perf_counter()``, ``datetime.now()`` and friends inside
  ``repro/core``, ``repro/dram``, ``repro/serving`` or ``repro/obs``
  leak host timing into simulated cycles.  Benchmarks measure wall
  clock legitimately, so the check is scoped to those packages, with no
  carve-out inside them.
* **Iteration over bare sets** -- set iteration order is salted per
  process, so a ``for`` loop or comprehension over a set literal,
  ``set(...)`` or ``frozenset(...)`` feeds nondeterministic order into
  whatever it builds (fingerprints, cache keys, routing tables).  Wrap
  the set in ``sorted(...)`` instead.
"""

import ast

from repro.analysis.linter import Rule, register_rule

#: Constructors that must receive a seed argument.
_RNG_CONSTRUCTORS = {
    "Random": "random.Random",
    "default_rng": "numpy.random.default_rng",
    "RandomState": "numpy.random.RandomState",
}

#: Attribute reads that return wall-clock values.
_WALLCLOCK_ATTRS = {
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "now", "utcnow", "today",
    "localtime", "gmtime",
}

#: Module roots the wall-clock attributes hang off.
_WALLCLOCK_ROOTS = {"time", "datetime", "date"}

#: repro sub-packages whose code computes simulated time and therefore
#: must never read the host clock.
_SIM_PACKAGES = {"core", "dram", "serving", "obs"}


def _call_name(func):
    """Trailing name of a call target (``a.b.c()`` -> ``"c"``)."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _root_name(node):
    """Leftmost name of an attribute chain (``a.b.c`` -> ``"a"``)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _in_sim_package(path):
    """True for files under ``repro/{core,dram,serving,obs}``."""
    parts = path.parts
    return any(part == "repro" and parts[index + 1] in _SIM_PACKAGES
               for index, part in enumerate(parts[:-1]))


def _is_bare_set(node):
    """Set literal / comprehension / direct set() call used as is."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))


@register_rule
class DeterminismRule(Rule):
    name = "determinism"
    description = ("RNGs must be seeded, simulation paths must not read "
                   "the wall clock, and bare sets must not be iterated")

    def check_module(self, module):
        sim_path = _in_sim_package(module.path)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node, sim_path)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_iteration(module, node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    yield from self._check_iteration(module,
                                                     generator.iter)

    def _check_call(self, module, node, sim_path):
        called = _call_name(node.func)
        if called in _RNG_CONSTRUCTORS:
            seeded = [arg for arg in node.args
                      if not (isinstance(arg, ast.Constant)
                              and arg.value is None)]
            seeded += [kw for kw in node.keywords
                       if not (isinstance(kw.value, ast.Constant)
                               and kw.value.value is None)]
            if not seeded:
                yield module.finding(
                    self.name, node,
                    "unseeded %s() draws OS entropy -- pass an explicit "
                    "seed so runs are reproducible"
                    % _RNG_CONSTRUCTORS[called])
        if sim_path and called in _WALLCLOCK_ATTRS \
                and isinstance(node.func, ast.Attribute) \
                and _root_name(node.func) in _WALLCLOCK_ROOTS:
            yield module.finding(
                self.name, node,
                "wall-clock read %s() inside a simulation path -- "
                "simulated time must come from the cycle model, never "
                "the host clock" % ast.unparse(node.func))

    def _check_iteration(self, module, iter_node):
        if _is_bare_set(iter_node):
            yield module.finding(
                self.name, iter_node,
                "iteration over a bare set has process-salted order -- "
                "wrap it in sorted(...) before it feeds fingerprints, "
                "cache keys or routing")
