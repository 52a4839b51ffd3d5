"""Rule ``kernel-twin-sync``: the two DDR kernel flavors cannot drift apart.

``repro/core/kernels.py`` keeps the DDR bank state machine twice: the
canonical struct-of-arrays ``_execute_window_flat`` numba jits (whose
un-jitted source is the ``flat-python`` flavor) and the CPython twin
``_execute_window_python``, which must implement the same arithmetic.
The runtime parity tests prove the flavors bit-identical -- but only on
the compositions they run, and only on hosts that exercise both flavors.
An edit to one twin's timing arithmetic that is not mirrored into the
other is exactly the kind of drift that survives a partial test matrix.

This rule proves the drift cannot happen silently.  Every pair in the
:data:`TWIN_PAIRS` registry is compared structurally over the region
under the pair's *anchor* statement -- for the DDR kernels, the ``else``
branch of their ``if hit:`` dispatch: precharge/activate, the burst read
loop, and the busy accounting tail.  The two regions must be
structurally identical ASTs after normalisation:

* line numbers, column offsets and comments are ignored (pure AST
  comparison);
* an assignment whose value contains a conditional expression is split
  into an explicit ``if``/``else`` pair, so
  ``x = a + (p if c else q)`` and ``if c: x = a + p else: x = a + q``
  compare equal -- the one idiomatic difference between the numba
  subset and tuned CPython;
* the :data:`ALLOWED_SUBSTITUTIONS` table maps the flavor-specific
  spellings the twins are *permitted* to differ in (numba's typed-dict
  sentinel vs CPython's ``dict.get``/``None``, ``use_cache != 0`` vs
  truthiness) onto one canonical form.

Any other difference -- a flipped operator, a reordered statement, a
changed timing constant -- is a finding naming the first divergent
statement in each twin.
"""

import ast
import copy

from repro.analysis.linter import Rule, register_rule

#: Function pairs that must stay structurally identical.  The third
#: field names the variable whose ``if <name>:`` statement anchors the
#: compared region (its ``else`` branch).  Pairs are matched by name in
#: whatever module defines both -- a module holding neither twin of a
#: pair is exempt from it.
TWIN_PAIRS = (
    # DDR bank state machine (repro/core/kernels.py).
    ("_execute_window_flat", "_execute_window_python", "hit"),
)

#: The flavor-specific spellings the twins may differ in.  Each entry is
#: normalised to one canonical AST by :class:`_Canonicalize`; anything
#: outside this table must match exactly.
ALLOWED_SUBSTITUTIONS = (
    "d.get(k) <-> d[k] (typed-dict subscript vs CPython .get)",
    "x is None / x is not None <-> x == _PART_UNSET / x != _PART_UNSET "
    "(missing-memo sentinel)",
    "use_cache != 0 <-> use_cache (int flag vs truthiness)",
    "x = a if c else b <-> if c: x = a else: x = b "
    "(conditional-expression assignment split)",
)


class _ReplaceFirstIfExp(ast.NodeTransformer):
    """Replace the first conditional expression with one of its arms."""

    def __init__(self, use_body):
        self.use_body = use_body
        self.done = False

    def visit_IfExp(self, node):
        if not self.done:
            self.done = True
            arm = node.body if self.use_body else node.orelse
            return self.visit(arm)
        return self.generic_visit(node)


def _find_ifexp(node):
    for child in ast.walk(node):
        if isinstance(child, ast.IfExp):
            return child
    return None


class _Canonicalize(ast.NodeTransformer):
    """Apply the allowed-substitution table and the IfExp split."""

    def visit_Assign(self, node):
        self.generic_visit(node)
        ifexp = _find_ifexp(node.value)
        if ifexp is None:
            return node
        test = ifexp.test
        body_value = _ReplaceFirstIfExp(True).visit(
            copy.deepcopy(node.value))
        orelse_value = _ReplaceFirstIfExp(False).visit(
            copy.deepcopy(node.value))
        branch = ast.If(
            test=test,
            body=[ast.Assign(targets=copy.deepcopy(node.targets),
                             value=body_value)],
            orelse=[ast.Assign(targets=copy.deepcopy(node.targets),
                               value=orelse_value)])
        # Recurse: arms may still hold further conditional expressions.
        return self.visit(branch)

    def visit_Call(self, node):
        self.generic_visit(node)
        # d.get(k) -> d[k]
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr == "get" and len(node.args) == 1 \
                and not node.keywords:
            return ast.Subscript(value=node.func.value,
                                 slice=node.args[0], ctx=ast.Load())
        return node

    def visit_Compare(self, node):
        self.generic_visit(node)
        if len(node.ops) != 1:
            return node
        op, right = node.ops[0], node.comparators[0]
        # x is None -> x == _PART_UNSET; x is not None -> x != ...
        if isinstance(right, ast.Constant) and right.value is None \
                and isinstance(op, (ast.Is, ast.IsNot)):
            return ast.Compare(
                left=node.left,
                ops=[ast.Eq() if isinstance(op, ast.Is) else ast.NotEq()],
                comparators=[ast.Name(id="_PART_UNSET", ctx=ast.Load())])
        # x == _PART_UNSET stays; x != 0 on a flag name -> bare name.
        if isinstance(node.left, ast.Name) \
                and node.left.id == "use_cache" \
                and isinstance(op, ast.NotEq) \
                and isinstance(right, ast.Constant) and right.value == 0:
            return node.left
        return node


def _canonical_dump(stmt):
    tree = _Canonicalize().visit(copy.deepcopy(stmt))
    return ast.dump(tree, include_attributes=False)


def _twin_region(func, anchor):
    """The compared statement region of one twin: the ``else`` branch
    of its ``if <anchor>:`` statement, or ``None`` when the anchor is
    missing."""
    for node in ast.walk(func):
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) \
                and node.test.id == anchor:
            return node.orelse
    return None


def compare_twin_regions(flat_func, python_func, anchor="hit"):
    """Structural comparison of the twins' anchored regions.

    Returns ``None`` when the regions match, else a
    ``(message, flat_line, python_line)`` triple locating the first
    divergence (used both by the rule and by the drift tests).
    """
    flat_region = _twin_region(flat_func, anchor)
    python_region = _twin_region(python_func, anchor)
    if flat_region is None or python_region is None:
        missing = flat_func.name if flat_region is None \
            else python_func.name
        return ("twin %r lost its 'if %s:' anchor -- the compared "
                "kernel region cannot be located" % (missing, anchor),
                flat_func.lineno, python_func.lineno)
    flat_dumps = [_canonical_dump(stmt) for stmt in flat_region]
    python_dumps = [_canonical_dump(stmt) for stmt in python_region]
    limit = min(len(flat_dumps), len(python_dumps))
    for index in range(limit):
        if flat_dumps[index] != python_dumps[index]:
            return ("statement %d of the compared kernel region "
                    "differs between %r (line %d) and %r (line %d) "
                    "beyond the allowed substitutions -- the kernel "
                    "twins have drifted apart"
                    % (index + 1, flat_func.name,
                       flat_region[index].lineno, python_func.name,
                       python_region[index].lineno),
                    flat_region[index].lineno,
                    python_region[index].lineno)
    if len(flat_dumps) != len(python_dumps):
        longer, region = (flat_func, flat_region) \
            if len(flat_dumps) > len(python_dumps) \
            else (python_func, python_region)
        return ("twin %r has %d extra statement(s) in its compared "
                "kernel region" % (longer.name,
                                   abs(len(flat_dumps)
                                       - len(python_dumps))),
                region[limit].lineno, region[limit].lineno)
    return None


@register_rule
class KernelTwinSyncRule(Rule):
    name = "kernel-twin-sync"
    description = ("the numba kernel and its CPython twin must stay "
                   "structurally identical modulo the allowed "
                   "substitutions")

    def check_module(self, module):
        functions = {
            node.name: node for node in ast.walk(module.tree)
            if isinstance(node, ast.FunctionDef)}
        for flat_name, python_name, anchor in TWIN_PAIRS:
            flat_func = functions.get(flat_name)
            python_func = functions.get(python_name)
            if flat_func is None or python_func is None:
                # Not the kernels module (or a fixture without both
                # twins): the pair simply does not apply here.
                continue
            divergence = compare_twin_regions(flat_func, python_func,
                                              anchor)
            if divergence is not None:
                message, _, python_line = divergence
                yield module.finding(self.name, python_line, message)
