"""Static analysis of the repo's own invariants (``python -m repro lint``).

An AST-based linter enforcing, at lint time, the contracts the test
suite otherwise only checks dynamically:

``determinism``
    RNGs are seeded, simulation paths never read the wall clock, bare
    sets are never iterated.
``fingerprint-hygiene``
    Fingerprint / cache-key construction never uses ``id()``, bare
    ``repr()``, or unsorted dict iteration.
``pickle-safety``
    Classes in process-backend payload modules carry no
    lambdas/locks/connections/pools without a ``__getstate__``.
``broad-except-audit``
    Every ``except Exception`` documents its degradation contract in a
    pragma.
``obs-hygiene``
    Library code publishes through the :mod:`repro.obs` metrics /
    exporter API instead of bare ``print()`` or direct stream writes
    (the CLI ``__main__.py`` owns the terminal).
``registry-consistency``
    Every registry entry is buildable, documented, and mirrored by the
    CLI choices.
``pragma-audit``
    Every suppression pragma names a known rule and carries a reason.

Suppress a finding in place with::

    offending_line()  # repro-lint: allow-<rule> (why this is safe)

See :mod:`repro.analysis.linter` for the framework and the individual
rule modules for the precise checks.
"""

from repro.analysis.linter import (       # noqa: F401
    Finding,
    LintUsageError,
    Rule,
    RULES,
    SourceModule,
    available_rules,
    lint_paths,
    register_rule,
)

# Importing the rule modules registers the built-in rules.
from repro.analysis import determinism    # noqa: F401  (registers rule)
from repro.analysis import excepts        # noqa: F401  (registers rule)
from repro.analysis import fingerprint    # noqa: F401  (registers rule)
from repro.analysis import obs_hygiene    # noqa: F401  (registers rule)
from repro.analysis import pickle_safety  # noqa: F401  (registers rule)
from repro.analysis import registries     # noqa: F401  (registers rule)

__all__ = [
    "Finding",
    "LintUsageError",
    "Rule",
    "RULES",
    "SourceModule",
    "available_rules",
    "lint_paths",
    "register_rule",
]
