"""Tests for the invariant linter (:mod:`repro.analysis`).

Each rule gets golden bad-snippet fixtures asserting the exact rule,
file and line of every finding, plus a clean fixture proving zero
false positives; pragma suppression is round-tripped; and the shipped
tree itself must lint clean (the self-lint test is the tier-1 guarantee
that the repo never regresses its own invariants).
"""

import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    LintUsageError,
    RULES,
    available_rules,
    lint_paths,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_snippet(tmp_path, relpath, source, rules=None):
    """Write ``source`` under ``tmp_path/relpath`` and lint it."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path, lint_paths([str(path)], rules=rules)


def only(findings, rule):
    return [f for f in findings if f.rule == rule]


# --------------------------------------------------------------------- #
class TestDeterminismRule:
    def test_unseeded_random_exact_line(self, tmp_path):
        path, findings = lint_snippet(tmp_path, "mod.py", """\
            import random

            rng = random.Random()
            """, rules=["determinism"])
        assert len(findings) == 1
        finding = findings[0]
        assert (finding.rule, finding.path, finding.line) == \
            ("determinism", str(path), 3)
        assert "unseeded random.Random()" in finding.message

    def test_unseeded_default_rng_and_randomstate(self, tmp_path):
        _, findings = lint_snippet(tmp_path, "mod.py", """\
            import numpy as np

            a = np.random.default_rng()
            b = np.random.RandomState()
            """, rules=["determinism"])
        assert [f.line for f in findings] == [3, 4]

    def test_seeded_rngs_clean(self, tmp_path):
        _, findings = lint_snippet(tmp_path, "mod.py", """\
            import random

            import numpy as np

            a = random.Random(7)
            b = np.random.default_rng(seed=0)
            c = np.random.default_rng(user_seed)
            """, rules=["determinism"])
        assert findings == []

    def test_seed_none_counts_as_unseeded(self, tmp_path):
        _, findings = lint_snippet(tmp_path, "mod.py", """\
            import random

            rng = random.Random(None)
            """, rules=["determinism"])
        assert [f.line for f in findings] == [3]

    def test_wallclock_flagged_only_in_sim_packages(self, tmp_path):
        sim_src = """\
            import time

            def step():
                return time.perf_counter()
            """
        _, sim = lint_snippet(tmp_path, "repro/core/mod.py", sim_src,
                              rules=["determinism"])
        assert [f.line for f in sim] == [4]
        assert "wall-clock read time.perf_counter()" in sim[0].message
        _, bench = lint_snippet(tmp_path, "benchmarks/mod.py", sim_src,
                                rules=["determinism"])
        assert bench == []

    def test_datetime_now_in_serving(self, tmp_path):
        _, findings = lint_snippet(
            tmp_path, "repro/serving/mod.py", """\
            import datetime

            stamp = datetime.datetime.now()
            """, rules=["determinism"])
        assert [f.line for f in findings] == [3]

    def test_wallclock_flagged_in_obs_package(self, tmp_path):
        _, findings = lint_snippet(
            tmp_path, "repro/obs/tracing.py", """\
            import time

            def stamp():
                return time.monotonic()
            """, rules=["determinism"])
        assert [f.line for f in findings] == [4]

    @pytest.mark.parametrize("path", ["repro/obs/profiling.py",
                                      "repro/obs/tracing.py",
                                      "repro/serving/profiling.py",
                                      "repro/core/profiling.py",
                                      "repro/dram/profiling.py"])
    def test_wallclock_has_no_carve_out(self, tmp_path, path):
        _, findings = lint_snippet(tmp_path, path, """\
            import time

            def tick():
                return time.perf_counter()
            """, rules=["determinism"])
        assert [f.line for f in findings] == [4]

    def test_bare_set_iteration(self, tmp_path):
        _, findings = lint_snippet(tmp_path, "mod.py", """\
            for item in {3, 1, 2}:
                print(item)

            listed = [x for x in set(values)]
            """, rules=["determinism"])
        assert [f.line for f in findings] == [1, 4]
        assert all("process-salted order" in f.message for f in findings)

    def test_sorted_set_iteration_clean(self, tmp_path):
        _, findings = lint_snippet(tmp_path, "mod.py", """\
            for item in sorted({3, 1, 2}):
                print(item)
            """, rules=["determinism"])
        assert findings == []


# --------------------------------------------------------------------- #
class TestObsHygieneRule:
    def test_bare_print_in_library_flagged(self, tmp_path):
        path, findings = lint_snippet(
            tmp_path, "repro/serving/mod.py", """\
            def publish(report):
                print(report.p99_us)
            """, rules=["obs-hygiene"])
        assert len(findings) == 1
        assert (findings[0].rule, findings[0].path, findings[0].line) \
            == ("obs-hygiene", str(path), 2)
        assert "bare print()" in findings[0].message

    def test_stream_write_in_library_flagged(self, tmp_path):
        _, findings = lint_snippet(
            tmp_path, "repro/obs/mod.py", """\
            import sys

            def publish(line):
                sys.stderr.write(line)
            """, rules=["obs-hygiene"])
        assert [f.line for f in findings] == [4]
        assert "sys.stderr.write" in findings[0].message

    def test_cli_main_module_exempt(self, tmp_path):
        _, findings = lint_snippet(
            tmp_path, "repro/__main__.py", """\
            def cmd(args):
                print("the CLI owns the terminal")
                return 0
            """, rules=["obs-hygiene"])
        assert findings == []

    def test_code_outside_repro_exempt(self, tmp_path):
        _, findings = lint_snippet(
            tmp_path, "benchmarks/mod.py", """\
            print("benchmark tables go to stdout")
            """, rules=["obs-hygiene"])
        assert findings == []

    def test_pragma_suppresses(self, tmp_path):
        _, findings = lint_snippet(
            tmp_path, "repro/serving/mod.py", """\
            def debug(line, verbose):
                if verbose:
                    print(line)  # repro-lint: allow-obs-hygiene (opt-in debug aid)
            """, rules=["obs-hygiene"])
        assert findings == []

    def test_non_print_calls_clean(self, tmp_path):
        _, findings = lint_snippet(
            tmp_path, "repro/serving/mod.py", """\
            import sys

            def publish(registry, handle):
                registry.counter("runs").inc()
                handle.write("not a terminal stream\\n")
                return sys.maxsize
            """, rules=["obs-hygiene"])
        assert findings == []


# --------------------------------------------------------------------- #
class TestFingerprintHygieneRule:
    def test_id_in_cache_key_function(self, tmp_path):
        path, findings = lint_snippet(tmp_path, "mod.py", """\
            def cache_key(obj):
                return id(obj)
            """, rules=["fingerprint-hygiene"])
        assert len(findings) == 1
        assert (findings[0].path, findings[0].line) == (str(path), 2)
        assert "memory address" in findings[0].message

    def test_repr_call_in_fingerprint_function(self, tmp_path):
        _, findings = lint_snippet(tmp_path, "mod.py", """\
            def stable_fingerprint(value):
                return hash(repr(value))
            """, rules=["fingerprint-hygiene"])
        assert [f.line for f in findings] == [2]

    def test_bare_repr_as_sort_key(self, tmp_path):
        _, findings = lint_snippet(tmp_path, "mod.py", """\
            def batch_key(mapping):
                return tuple(sorted(mapping, key=repr))
            """, rules=["fingerprint-hygiene"])
        assert [f.line for f in findings] == [2]
        assert "sort key" in findings[0].message

    def test_unsorted_dict_iteration(self, tmp_path):
        _, findings = lint_snippet(tmp_path, "mod.py", """\
            def key_digest(mapping):
                parts = []
                for name, value in mapping.items():
                    parts.append((name, value))
                return tuple(parts)
            """, rules=["fingerprint-hygiene"])
        assert [f.line for f in findings] == [3]
        assert "construction order" in findings[0].message

    def test_keyish_assignment_from_id(self, tmp_path):
        _, findings = lint_snippet(tmp_path, "mod.py", """\
            def lookup(obj, memo):
                key = id(obj)
                return memo[key]
            """, rules=["fingerprint-hygiene"])
        assert [f.line for f in findings] == [2]

    def test_clean_fingerprint_function(self, tmp_path):
        _, findings = lint_snippet(tmp_path, "mod.py", """\
            def cache_key(mapping):
                return tuple(
                    (name, mapping[name]) for name in sorted(mapping))
            """, rules=["fingerprint-hygiene"])
        assert findings == []

    def test_unmarked_function_not_audited(self, tmp_path):
        _, findings = lint_snippet(tmp_path, "mod.py", """\
            def describe(obj):
                return repr(obj)
            """, rules=["fingerprint-hygiene"])
        assert findings == []


# --------------------------------------------------------------------- #
class TestPickleSafetyRule:
    PAYLOAD = """\
        import threading

        class Frontend:
            def __init__(self):
                self._lock = threading.Lock()
        """

    def test_lock_in_payload_module(self, tmp_path):
        path, findings = lint_snippet(
            tmp_path, "repro/serving/cluster.py", self.PAYLOAD,
            rules=["pickle-safety"])
        assert len(findings) == 1
        assert (findings[0].path, findings[0].line) == (str(path), 5)
        assert "self._lock" in findings[0].message

    def test_getstate_escape_hatch(self, tmp_path):
        _, findings = lint_snippet(
            tmp_path, "repro/serving/cluster.py", """\
            import threading

            class Frontend:
                def __init__(self):
                    self._lock = threading.Lock()

                def __getstate__(self):
                    return {}
            """, rules=["pickle-safety"])
        assert findings == []

    def test_non_payload_module_exempt(self, tmp_path):
        _, findings = lint_snippet(tmp_path, "repro/core/helper.py",
                                   self.PAYLOAD, rules=["pickle-safety"])
        assert findings == []

    def test_lambda_and_connection_fields(self, tmp_path):
        _, findings = lint_snippet(
            tmp_path, "repro/perf/service_store.py", """\
            import sqlite3

            class Store:
                def __init__(self, path):
                    self._render = lambda row: str(row)
                    self._connection = sqlite3.connect(path)
            """, rules=["pickle-safety"])
        assert [f.line for f in findings] == [5, 6]


# --------------------------------------------------------------------- #
class TestBroadExceptAuditRule:
    def test_except_exception_fires_on_handler_line(self, tmp_path):
        path, findings = lint_snippet(tmp_path, "mod.py", """\
            try:
                risky()
            except Exception:
                pass
            """, rules=["broad-except-audit"])
        assert len(findings) == 1
        assert (findings[0].path, findings[0].line) == (str(path), 3)

    def test_bare_except_and_tuple_fire(self, tmp_path):
        _, findings = lint_snippet(tmp_path, "mod.py", """\
            try:
                risky()
            except:
                pass
            try:
                risky()
            except (ValueError, Exception):
                pass
            """, rules=["broad-except-audit"])
        assert [f.line for f in findings] == [3, 7]

    def test_specific_exception_clean(self, tmp_path):
        _, findings = lint_snippet(tmp_path, "mod.py", """\
            try:
                risky()
            except (ValueError, KeyError):
                pass
            """, rules=["broad-except-audit"])
        assert findings == []


# --------------------------------------------------------------------- #
class TestPragmaSuppression:
    def test_inline_pragma_round_trip(self, tmp_path):
        bad = """\
            try:
                risky()
            except Exception:
                pass
            """
        _, before = lint_snippet(tmp_path, "before.py", bad,
                                 rules=["broad-except-audit"])
        assert len(before) == 1
        _, after = lint_snippet(tmp_path, "after.py", bad.replace(
            "except Exception:",
            "except Exception:  # repro-lint: "
            "allow-broad-except-audit (degrades to a noop by design)"),
            rules=["broad-except-audit", "pragma-audit"])
        assert after == []

    def test_comment_line_pragma_covers_next_statement(self, tmp_path):
        _, findings = lint_snippet(tmp_path, "mod.py", """\
            import random

            # repro-lint: allow-determinism (entropy wanted here)
            rng = random.Random()
            """, rules=["determinism", "pragma-audit"])
        assert findings == []

    def test_pragma_without_reason_is_audited(self, tmp_path):
        _, findings = lint_snippet(tmp_path, "mod.py", """\
            import random

            rng = random.Random()  # repro-lint: allow-determinism
            """)
        audited = only(findings, "pragma-audit")
        assert [f.line for f in audited] == [3]
        assert "no reason" in audited[0].message
        # The reasonless pragma still suppresses; only the audit remains.
        assert only(findings, "determinism") == []

    def test_pragma_for_unknown_rule_is_audited(self, tmp_path):
        _, findings = lint_snippet(tmp_path, "mod.py", """\
            x = 1  # repro-lint: allow-made-up-rule (because)
            """)
        audited = only(findings, "pragma-audit")
        assert len(audited) == 1
        assert "unknown rule 'made-up-rule'" in audited[0].message

    def test_pragma_inside_string_is_ignored(self, tmp_path):
        _, findings = lint_snippet(tmp_path, "mod.py", """\
            DOC = "# repro-lint: allow-determinism (not a comment)"
            import random

            rng = random.Random()
            """)
        assert [f.rule for f in findings] == ["determinism"]

    def test_pragma_does_not_cover_other_lines(self, tmp_path):
        _, findings = lint_snippet(tmp_path, "mod.py", """\
            import random

            a = random.Random()  # repro-lint: allow-determinism (ok)
            b = random.Random()
            """, rules=["determinism"])
        assert [f.line for f in findings] == [4]


# --------------------------------------------------------------------- #
class TestRegistryConsistencyRule:
    REGISTRY_FILE = str(REPO_ROOT / "src" / "repro" / "systems"
                        / "registry.py")

    def test_fixture_trees_never_trigger(self, tmp_path):
        _, findings = lint_snippet(tmp_path, "registry.py", """\
            x = 1
            """, rules=["registry-consistency"])
        assert findings == []

    def test_real_registries_clean(self):
        findings = lint_paths([self.REGISTRY_FILE],
                              rules=["registry-consistency"])
        assert findings == []

    def test_undocumented_unexposed_entry_fires(self, monkeypatch):
        from repro.serving import slo
        from repro.serving.sharding import ReplicatedTableSharder

        class BogusPolicy:
            pass

        # An unexposed placement policy and an undocumented SLO policy:
        # one finding each.
        monkeypatch.setattr(ReplicatedTableSharder, "POLICIES",
                            ReplicatedTableSharder.POLICIES + ("bogus",))
        monkeypatch.setitem(slo.SLO_POLICIES, "bogus", BogusPolicy)
        findings = lint_paths([self.REGISTRY_FILE],
                              rules=["registry-consistency"])
        messages = sorted(f.message for f in findings)
        assert len(messages) == 2
        assert "SLO policy 'bogus' (BogusPolicy) has no docstring" \
            in messages[0]
        assert messages[1] == ("placement policy 'bogus' is registered "
                               "but missing from the CLI --shard-policy "
                               "choices")


# --------------------------------------------------------------------- #
class TestLintPathsAPI:
    def test_unknown_rule_raises_usage_error(self, tmp_path):
        (tmp_path / "mod.py").write_text("x = 1\n")
        with pytest.raises(LintUsageError, match="unknown rule"):
            lint_paths([str(tmp_path)], rules=["no-such-rule"])

    def test_missing_path_raises_usage_error(self, tmp_path):
        with pytest.raises(LintUsageError, match="no such file"):
            lint_paths([str(tmp_path / "absent")])

    def test_syntax_error_reported_as_parse_error(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n")
        findings = lint_paths([str(path)])
        assert [f.rule for f in findings] == ["parse-error"]

    def test_rule_selection_is_exclusive(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("import random\nrng = random.Random()\n"
                        "try:\n    rng\nexcept Exception:\n    pass\n")
        findings = lint_paths([str(path)], rules=["broad-except-audit"])
        assert {f.rule for f in findings} == {"broad-except-audit"}

    def test_every_registered_rule_has_description(self):
        for name in available_rules():
            rule = RULES[name]
            assert rule.name == name
            assert rule.description

    def test_findings_sorted_and_deduplicated(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("import random\n"
                        "b = random.Random()\n"
                        "a = random.Random()\n")
        findings = lint_paths([str(path), str(path)],
                              rules=["determinism"])
        assert [f.line for f in findings] == [2, 3]

    def test_finding_repr_shows_every_field(self):
        # What pytest prints when an assertion over findings fails.
        finding = Finding("determinism", Path("pkg/mod.py"), "7",
                          "unseeded RNG")
        assert repr(finding) \
            == "Finding('determinism', 'pkg/mod.py', 7, 'unseeded RNG')"


# --------------------------------------------------------------------- #
class TestSelfLint:
    """The shipped tree must satisfy its own invariants (tier-1)."""

    def test_src_and_benchmarks_lint_clean(self):
        findings = lint_paths([str(REPO_ROOT / "src" / "repro"),
                               str(REPO_ROOT / "benchmarks")])
        assert findings == [], "\n".join(f.format() for f in findings)
