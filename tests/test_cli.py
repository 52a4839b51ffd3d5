"""Smoke tests for the ``python -m repro`` command-line interface.

Drives ``list-systems`` / ``run`` / ``serve`` through :func:`main` with
tiny workloads (small tables, few queries, the analytic host model where
possible) and asserts both the happy paths and the parse/validation
errors -- the CLI previously had no coverage at all.
"""

import json

import pytest

from repro.__main__ import build_parser, main

#: Tiny shared workload: small tables, few queries, cheap systems.
RUN_ARGS = ["run", "--system", "host", "--tables", "2", "--batch", "2",
            "--pooling", "4", "--num-rows", "2000", "--seed", "0"]
SERVE_ARGS = ["serve", "--system", "recnmp-base", "--tables", "2",
              "--batch", "2", "--pooling", "4", "--num-rows", "2000",
              "--nodes", "2", "--queries", "12", "--qps", "100000",
              "--seed", "0"]


def run_json(argv, capsys):
    """Run the CLI and parse its JSON payload."""
    assert main(argv + ["--json"]) == 0
    return json.loads(capsys.readouterr().out)


class TestListSystems:
    def test_lists_known_registry_names(self, capsys):
        assert main(["list-systems"]) == 0
        out = capsys.readouterr().out
        for name in ("host", "recnmp-base", "recnmp-opt",
                     "recnmp-opt-4ch"):
            assert name in out


class TestRun:
    def test_run_host_json(self, capsys):
        payload = run_json(RUN_ARGS, capsys)
        assert payload["system"] == "host"
        assert payload["num_requests"] == 2
        assert payload["total_cycles"] > 0
        assert "baseline_cache" in payload

    def test_run_human_readable(self, capsys):
        assert main(RUN_ARGS) == 0
        out = capsys.readouterr().out
        assert "workload" in out and "latency" in out

    def test_run_unknown_system_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "--system", "definitely-not-registered"])


class TestServe:
    def test_serve_analytic_json(self, capsys):
        payload = run_json(SERVE_ARGS, capsys)
        assert payload["num_queries"] == 12
        assert payload["p50_us"] <= payload["p95_us"] <= payload["p99_us"]
        assert payload["extras"]["engine"] == "analytic"
        assert "slo" not in payload["extras"]

    def test_serve_slo_admission_mmpp(self, capsys):
        payload = run_json(
            SERVE_ARGS + ["--engine", "event", "--arrival", "mmpp",
                          "--slo-us", "5000", "--admission", "deadline"],
            capsys)
        slo = payload["extras"]["slo"]
        assert slo["slo_policy"] == "fixed 5000 us"
        assert slo["admission"] == "deadline"
        assert slo["num_offered"] == 12
        assert 0.0 <= slo["shed_rate"] <= 1.0
        assert slo["attainment"] is None or 0.0 <= slo["attainment"] <= 1.0

    def test_serve_trace_arrival_edf(self, capsys):
        payload = run_json(
            SERVE_ARGS + ["--engine", "event-edf", "--arrival", "trace",
                          "--slo-us", "5000"], capsys)
        assert payload["extras"]["engine"] == "event-edf"
        assert payload["extras"]["queue_order"] == "edf"
        assert payload["extras"]["slo"]["num_shed"] == 0

    def test_serve_human_readable_slo_section(self, capsys):
        assert main(SERVE_ARGS + ["--slo-us", "5000",
                                  "--admission", "none"]) == 0
        out = capsys.readouterr().out
        assert "attainment" in out
        assert "goodput" in out
        assert "admission" in out

    def test_serve_replication_with_overhead_override(self, capsys):
        payload = run_json(
            SERVE_ARGS + ["--shard-policy", "load-aware", "--replicas",
                          "2", "--request-overhead", "40"], capsys)
        assert "load-aware" in payload["extras"]["sharder"]

    def test_serve_stream_chunk_identical_to_oneshot(self, capsys):
        args = SERVE_ARGS + ["--engine", "event", "--queries", "200"]
        oneshot = run_json(args, capsys)
        streamed = run_json(args + ["--stream-chunk", "64"], capsys)
        oneshot.pop("service_stats")
        streamed.pop("service_stats")
        assert streamed == oneshot

    def test_serve_stream_chunk_below_max_batch_exits(self):
        with pytest.raises(SystemExit, match="--max-batch"):
            main(SERVE_ARGS + ["--stream-chunk", "2"])

    def test_serve_stream_chunk_rejects_load_aware(self):
        with pytest.raises(SystemExit, match="load-aware"):
            main(SERVE_ARGS + ["--stream-chunk", "64", "--shard-policy",
                               "load-aware", "--request-overhead", "40"])

    def test_serve_unknown_system_exits(self):
        with pytest.raises(SystemExit):
            main(["serve", "--system", "definitely-not-registered",
                  "--queries", "4"])

    def test_serve_workload_trace_flag(self, capsys):
        # serve spells the workload locality flag --workload-trace
        # (so --trace can name the Perfetto output file).
        payload = run_json(
            SERVE_ARGS + ["--workload-trace", "production"], capsys)
        assert payload["num_queries"] == 12

    def test_serve_writes_trace_and_metrics(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        payload = run_json(
            SERVE_ARGS + ["--engine", "event",
                          "--trace", str(trace_path),
                          "--metrics-json", str(metrics_path)], capsys)
        assert payload["trace_path"] == str(trace_path)
        assert payload["metrics_path"] == str(metrics_path)
        from repro.obs import validate_chrome_trace

        trace = json.loads(trace_path.read_text())
        validate_chrome_trace(trace)
        assert trace["otherData"]["num_queries"] == 12
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["counters"]["serving.queries_total"] == 12

    def test_serve_trace_without_metrics_unchanged_report(self, tmp_path,
                                                          capsys):
        args = SERVE_ARGS + ["--engine", "event"]
        plain = run_json(args, capsys)
        traced = run_json(
            args + ["--trace", str(tmp_path / "t.json")], capsys)
        traced.pop("trace_path")
        # Tracing must not perturb the report (caches warm across runs,
        # so drop the host-side stat block before comparing).
        plain.pop("service_stats")
        traced.pop("service_stats")
        assert traced == plain

    def test_serve_human_readable_mentions_outputs(self, tmp_path,
                                                   capsys):
        assert main(SERVE_ARGS
                    + ["--trace", str(tmp_path / "t.json"),
                       "--metrics-json", str(tmp_path / "m.json")]) == 0
        out = capsys.readouterr().out
        assert "perfetto" in out.lower()
        assert "repro report" in out


class TestReport:
    def test_report_renders_metrics_snapshot(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        run_json(SERVE_ARGS + ["--metrics-json", str(metrics_path)],
                 capsys)
        assert main(["report", str(metrics_path)]) == 0
        out = capsys.readouterr().out
        assert "serving.queries_total" in out
        assert "serving.query_latency_us" in out

    def test_report_missing_file_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["report", str(tmp_path / "absent.json")])

    def test_report_invalid_json_exits(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit, match="not valid JSON"):
            main(["report", str(bad)])

    def test_report_non_object_exits(self, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        with pytest.raises(SystemExit, match="not a metrics snapshot"):
            main(["report", str(bad)])


class TestParseErrors:
    def test_deadline_admission_requires_slo(self):
        with pytest.raises(SystemExit, match="--slo-us"):
            main(SERVE_ARGS + ["--admission", "deadline"])

    def test_non_positive_slo_rejected(self):
        with pytest.raises(SystemExit, match="positive"):
            main(SERVE_ARGS + ["--slo-us", "-10"])
        with pytest.raises(SystemExit, match="positive"):
            main(SERVE_ARGS + ["--slo-us", "0"])

    @pytest.mark.parametrize("budget", ["nan", "inf"])
    def test_non_finite_slo_rejected(self, budget):
        # NaN passed the ``<= 0`` check and ran without deadlines.
        with pytest.raises(SystemExit, match="finite") as excinfo:
            main(SERVE_ARGS + ["--slo-us", budget])
        assert excinfo.value.code not in (None, 0)

    def test_negative_request_overhead_rejected(self):
        with pytest.raises(SystemExit, match="non-negative"):
            main(SERVE_ARGS + ["--request-overhead", "-1"])

    def test_bad_choices_exit_with_usage_error(self, capsys):
        for flags in (["--arrival", "bursty"],
                      ["--engine", "closed-form"],
                      ["--admission", "drop-everything"],
                      ["--shard-policy", "best-fit"],
                      ["--service-model", "oracle"]):
            with pytest.raises(SystemExit) as excinfo:
                main(SERVE_ARGS + flags)
            assert excinfo.value.code == 2     # argparse usage error
            capsys.readouterr()                # drain usage output

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_parser_declares_new_serve_flags(self):
        parser = build_parser()
        text = parser.format_help()
        assert "serve" in text
        # The new flags are registered on the serve subparser.
        serve_args = [action.option_strings
                      for action in parser._subparsers._group_actions[0]
                      .choices["serve"]._actions]
        flat = {flag for flags in serve_args for flag in flags}
        for flag in ("--slo-us", "--admission", "--arrival",
                     "--request-overhead", "--stream-chunk",
                     "--workload-trace", "--trace", "--metrics-json"):
            assert flag in flat


class TestLint:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text('"""A module with no violations."""\n'
                         "import random\n\n"
                         "rng = random.Random(7)\n")
        assert main(["lint", str(clean)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_violation_exits_one_and_names_the_rule(self, tmp_path,
                                                    capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n\nrng = random.Random()\n")
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "[determinism]" in out
        assert "%s:3" % bad in out

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("x = 1\n")
        assert main(["lint", "--rule", "no-such-rule",
                     str(tmp_path)]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "absent")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_json_output_shape(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n\nrng = random.Random()\n")
        assert main(["lint", "--json", str(bad)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_findings"] == 1
        finding = payload["findings"][0]
        assert finding["rule"] == "determinism"
        assert finding["path"] == str(bad)
        assert finding["line"] == 3
        assert payload["rules"] == sorted(payload["rules"])

    def test_rule_subset_runs_only_selected(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nrng = random.Random()\n"
                       "try:\n    rng\nexcept Exception:\n    pass\n")
        assert main(["lint", "--rule", "broad-except-audit",
                     str(bad)]) == 1
        out = capsys.readouterr().out
        assert "[broad-except-audit]" in out
        assert "[determinism]" not in out
