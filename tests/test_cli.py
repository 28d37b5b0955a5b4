"""CLI tests (invoking :func:`repro.cli.main` in-process), including
byte-exact golden-output regression tests.

Golden files live in ``tests/golden/``; regenerate them after an
intentional output change with

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_cli.py

and commit the diff alongside the change that caused it.
"""

import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main

GOLDEN_DIR = Path(__file__).parent / "golden"

# wall-clock stats are the only nondeterministic output; scrub them
_SECONDS = re.compile(r"('(?:push|mc)_seconds': )[0-9.e+-]+")


def _scrub(text: str) -> str:
    return _SECONDS.sub(r"\1<seconds>", text)


def _assert_matches_golden(name: str, out: str) -> None:
    path = GOLDEN_DIR / name
    scrubbed = _scrub(out)
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        path.write_text(scrubbed)
        return
    assert path.exists(), (
        f"missing golden file {path}; regenerate with "
        f"REPRO_UPDATE_GOLDEN=1")
    assert scrubbed == path.read_text(), (
        f"output of {name} drifted from the committed golden file; if "
        f"intentional, regenerate with REPRO_UPDATE_GOLDEN=1 and commit")


def _error_transcript(argv, capsys) -> str:
    """Run ``repro`` argv, assert it fails with exit code 2, and render
    a ``$ cmd / exit / stderr`` block for the golden transcript."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2, f"{argv} exited {code}, expected 2"
    assert captured.err.startswith("error:"), captured.err
    return (f"$ repro {' '.join(argv)}\n"
            f"exit {code}\n"
            f"{captured.err}")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_query_defaults(self):
        args = build_parser().parse_args(
            ["query", "source", "youtube", "0"])
        assert args.alpha == 0.01
        assert args.kind == "source"

    def test_push_backend_flag_rejected(self):
        # the push kernel is no longer selectable: one kernel serves all
        for argv in (["query", "source", "youtube", "0"], ["selfcheck"],
                     ["serve"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv + ["--push-backend",
                                                  "vectorized"])

    def test_serve_observability_flags(self):
        args = build_parser().parse_args(
            ["serve", "--trace-sample-rate", "0.25",
             "--trace-buffer", "64", "--slowlog", "/tmp/slow.jsonl",
             "--slowlog-threshold-ms", "100", "--profile",
             "/tmp/prof.txt"])
        assert args.trace_sample_rate == 0.25
        assert args.trace_buffer == 64
        assert args.slowlog == "/tmp/slow.jsonl"
        assert args.slowlog_threshold_ms == 100.0
        assert args.profile == "/tmp/prof.txt"

    def test_serve_observability_defaults_off(self):
        args = build_parser().parse_args(["serve"])
        assert args.trace_sample_rate == 0.0
        assert args.slowlog is None
        assert args.profile is None

    def test_trace_subcommand(self):
        args = build_parser().parse_args(
            ["trace", "tail", "slow.jsonl", "-n", "7"])
        assert (args.action, args.slowlog, args.lines) == (
            "tail", "slow.jsonl", 7)
        args = build_parser().parse_args(["trace", "summarize", "s.jsonl"])
        assert args.action == "summarize"
        with pytest.raises(SystemExit):  # an action is required
            build_parser().parse_args(["trace"])

    def test_bench_subcommand_rejected(self):
        # kernel work budgets are tier-1 tests; wall clock is measured
        # by benchmarks/e2e, so there is no timing subcommand
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])

    def test_serve_dynamic_flag(self):
        assert build_parser().parse_args(["serve"]).dynamic is False
        assert build_parser().parse_args(
            ["serve", "--dynamic"]).dynamic is True

    def test_index_build_dynamic_flag(self):
        args = build_parser().parse_args(
            ["index", "build", "youtube", "bank", "--dynamic"])
        assert args.dynamic is True
        assert build_parser().parse_args(
            ["index", "build", "youtube", "bank"]).dynamic is False

    def test_index_mutate_subcommand(self):
        args = build_parser().parse_args(
            ["index", "mutate", "bank", "--add", "0:1", "--add", "2:3:1.5",
             "--remove", "4:5", "--set-weight", "6:7:2.0",
             "--upsert", "8:9:0.5", "--out", "other", "--seed", "9"])
        assert args.action == "mutate"
        assert args.bank_dir == "bank"
        assert args.add == ["0:1", "2:3:1.5"]
        assert args.remove == ["4:5"]
        assert args.set_weight == ["6:7:2.0"]
        assert args.upsert == ["8:9:0.5"]
        assert args.out == "other"
        assert args.seed == 9

    def test_index_mutate_defaults(self):
        args = build_parser().parse_args(["index", "mutate", "bank"])
        assert args.add == [] and args.remove == []
        assert args.set_weight == [] and args.upsert == []
        assert args.out is None
        assert args.seed == 2022

    def test_query_variance_mode_flag(self):
        args = build_parser().parse_args(
            ["query", "source", "youtube", "0"])
        assert args.variance_mode == "improved"
        args = build_parser().parse_args(
            ["query", "source", "youtube", "0",
             "--variance-mode", "stratified"])
        assert args.variance_mode == "stratified"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "source", "youtube", "0",
                 "--variance-mode", "antithetic"])

    def test_index_build_layout_flags(self):
        args = build_parser().parse_args(
            ["index", "build", "youtube", "bank"])
        assert args.variance_mode == "improved"
        assert args.bank_dtype == "float64"
        args = build_parser().parse_args(
            ["index", "build", "youtube", "bank",
             "--variance-mode", "stratified", "--bank-dtype", "float32"])
        assert args.variance_mode == "stratified"
        assert args.bank_dtype == "float32"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["index", "build", "youtube", "bank",
                 "--bank-dtype", "float16"])
        # bank rows are always node ids: there is no row-order option
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["index", "build", "youtube", "bank",
                 "--node-order", "degree"])

    def test_serve_slo_flags(self):
        args = build_parser().parse_args(["serve"])
        assert args.slowlog_max_bytes is None
        assert args.slo_availability_objective == 0.999
        assert args.slo_latency_objective == 0.99
        assert args.slo_latency_ms == 250.0
        assert args.slo_fast_window_s == 60.0
        assert args.slo_slow_window_s == 300.0
        assert args.slo_burn_threshold == 10.0
        args = build_parser().parse_args(
            ["serve", "--slowlog-max-bytes", "1048576",
             "--slo-availability-objective", "0.995",
             "--slo-latency-objective", "0.95",
             "--slo-latency-ms", "100", "--slo-fast-window-s", "30",
             "--slo-slow-window-s", "120",
             "--slo-burn-threshold", "5"])
        assert args.slowlog_max_bytes == 1048576
        assert args.slo_availability_objective == 0.995
        assert args.slo_latency_objective == 0.95
        assert args.slo_latency_ms == 100.0
        assert args.slo_fast_window_s == 30.0
        assert args.slo_slow_window_s == 120.0
        assert args.slo_burn_threshold == 5.0

    def test_trace_export_subcommand(self):
        args = build_parser().parse_args(
            ["trace", "export", "slow.jsonl", "--out", "trace.json"])
        assert (args.action, args.slowlog) == ("export", "slow.jsonl")
        assert args.format == "chrome"
        assert args.out == "trace.json"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["trace", "export", "slow.jsonl", "--format", "jaeger"])

    def test_top_and_obs_subcommands(self):
        args = build_parser().parse_args(["top", "--once"])
        assert args.once is True
        assert args.url == "http://127.0.0.1:8471"
        assert args.interval == 2.0
        args = build_parser().parse_args(["obs", "report", "snap.json"])
        assert (args.action, args.snapshot) == ("report", "snap.json")
        with pytest.raises(SystemExit):  # an action is required
            build_parser().parse_args(["obs"])

    def test_serve_bank_dir_flag(self):
        assert build_parser().parse_args(["serve"]).bank_dir is None
        args = build_parser().parse_args(
            ["serve", "--bank-dir", "some/bank"])
        assert args.bank_dir == "some/bank"


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "youtube" in out and "stackoverflow" in out

    def test_query_source(self, capsys):
        code = main(["query", "source", "youtube", "0",
                     "--scale", "0.05", "--top", "3", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "speedlv" in out
        assert "top 3:" in out

    def test_query_target(self, capsys):
        code = main(["query", "target", "youtube", "0",
                     "--scale", "0.05", "--alpha", "0.1", "--seed", "1"])
        assert code == 0
        assert "backlv" in capsys.readouterr().out

    def test_query_method_override(self, capsys):
        code = main(["query", "source", "youtube", "0", "--scale", "0.05",
                     "--method", "fora", "--alpha", "0.1", "--seed", "1"])
        assert code == 0
        assert "fora" in capsys.readouterr().out

    def test_pair(self, capsys):
        code = main(["pair", "youtube", "0", "1",
                     "--scale", "0.05", "--alpha", "0.1", "--seed", "1"])
        assert code == 0
        assert "pi(0, 1)" in capsys.readouterr().out

    def test_cluster(self, capsys):
        code = main(["cluster", "youtube", "0", "--scale", "0.05",
                     "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "conductance" in out

    def test_spectrum(self, capsys):
        code = main(["spectrum", "youtube", "--scale", "0.05",
                     "--alphas", "0.1", "0.01", "--seed", "1"])
        assert code == 0
        assert "tau_lemma44" in capsys.readouterr().out

    def test_error_path_returns_2(self, capsys):
        code = main(["query", "source", "not-a-dataset", "0"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_node_returns_2(self, capsys):
        code = main(["query", "source", "youtube", "999999999",
                     "--scale", "0.05"])
        assert code == 2

    def test_selfcheck(self, capsys):
        assert main(["selfcheck", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "self-check passed" in out
        assert out.count("[ok]") == 4

    def test_selfcheck_output_worker_invariant(self, capsys):
        assert main(["selfcheck", "--seed", "7", "--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["selfcheck", "--seed", "7", "--workers", "3"]) == 0
        assert capsys.readouterr().out == serial

    def test_index_build_then_load(self, capsys, tmp_path):
        from repro.graph.datasets import load_dataset
        from repro.montecarlo.forest_index import ForestIndex

        bank = str(tmp_path / "bank")
        assert main(["index", "build", "youtube", bank, "--scale", "0.05",
                     "--num-forests", "3", "--seed", "11"]) == 0
        out = capsys.readouterr().out
        assert "built bank: youtube" in out
        assert "forests 3" in out
        graph = load_dataset("youtube", scale=0.05)
        index = ForestIndex.load_bank(bank, graph)
        assert index.num_forests == 3

    def test_index_build_float32_records_dtype(self, capsys, tmp_path):
        bank = str(tmp_path / "bank")
        assert main(["index", "build", "youtube", bank, "--scale", "0.05",
                     "--num-forests", "3", "--seed", "11",
                     "--bank-dtype", "float32"]) == 0
        capsys.readouterr()
        assert main(["index", "inspect", bank]) == 0
        out = capsys.readouterr().out
        assert "float32" in out
        assert "operator" in out

    def test_index_build_stratified_records_mode(self, capsys, tmp_path):
        bank = str(tmp_path / "bank")
        assert main(["index", "build", "youtube", bank, "--scale", "0.05",
                     "--num-forests", "3", "--seed", "11",
                     "--variance-mode", "stratified"]) == 0
        assert "variance stratified" in capsys.readouterr().out
        assert main(["index", "inspect", bank]) == 0
        assert "stratified" in capsys.readouterr().out

    def test_index_build_dynamic_rejects_layout_flags(self, capsys,
                                                      tmp_path):
        bank = str(tmp_path / "bank")
        assert main(["index", "build", "youtube", bank, "--scale", "0.05",
                     "--num-forests", "3", "--dynamic",
                     "--bank-dtype", "float32"]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["index", "build", "youtube", bank, "--scale", "0.05",
                     "--num-forests", "3", "--dynamic",
                     "--variance-mode", "stratified"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_bank_dir_dry_run(self, capsys, tmp_path):
        bank = str(tmp_path / "bank")
        assert main(["index", "build", "youtube", bank, "--scale", "0.05",
                     "--num-forests", "3", "--seed", "11"]) == 0
        capsys.readouterr()
        assert main(["serve", "--graph", "youtube", "--scale", "0.05",
                     "--bank-dir", bank, "--dry-run"]) == 0
        assert bank in capsys.readouterr().out

    @pytest.mark.parametrize("damage", ["manifest", "member", "missing"])
    def test_serve_bank_dir_dry_run_rejects_damaged_bank(self, capsys,
                                                         tmp_path, damage):
        bank = tmp_path / "bank"
        assert main(["index", "build", "youtube", str(bank), "--scale",
                     "0.05", "--num-forests", "3", "--seed", "11"]) == 0
        capsys.readouterr()
        if damage == "manifest":
            (bank / "manifest.json").write_text("[1]")
        elif damage == "member":
            member = sorted(bank.glob("*.npy"))[0]
            member.write_bytes(member.read_bytes()[:member.stat().st_size
                                                   // 2])
        else:  # a member gone from both the manifest and the directory
            manifest = json.loads((bank / "manifest.json").read_text())
            del manifest["arrays"]["spread_target_data"]
            (bank / "manifest.json").write_text(json.dumps(manifest))
            (bank / "spread_target_data.npy").unlink()
        assert main(["serve", "--graph", "youtube", "--scale", "0.05",
                     "--bank-dir", str(bank), "--dry-run"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "dry run: config ok" not in captured.out
        if damage == "missing":
            assert "spread_target_data" in captured.err

    @pytest.mark.parametrize("case,serve_args,match", [
        ("graph", ["--scale", "0.1", "--alpha", "0.1"], "nodes"),
        ("alpha", ["--scale", "0.05", "--alpha", "0.2"], "alpha"),
        ("relabeled", ["--scale", "0.05", "--alpha", "0.1"],
         "relabeled.*repro index build"),
    ])
    def test_serve_bank_dir_dry_run_opens_the_bank_as_boot(
            self, capsys, tmp_path, case, serve_args, match):
        # a bank the real boot refuses fails the dry run with its error
        from repro.parallel.shared_bank import load_array_bank
        from tests.test_bank_layout import save_relabeled

        bank = str(tmp_path / "bank")
        assert main(["index", "build", "youtube", bank, "--scale", "0.05",
                     "--alpha", "0.1", "--num-forests", "3",
                     "--seed", "11"]) == 0
        capsys.readouterr()
        if case == "relabeled":
            save_relabeled(*load_array_bank(bank, mmap=False),
                           tmp_path / "relabeled")
            bank = str(tmp_path / "relabeled")
        assert main(["serve", "--graph", "youtube", *serve_args,
                     "--bank-dir", bank, "--dry-run"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert re.search(match, captured.err)
        assert "dry run: config ok" not in captured.out

    def test_serve_bank_dir_rejects_dynamic(self, capsys):
        assert main(["serve", "--bank-dir", "somewhere", "--dynamic",
                     "--dry-run"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_index_inspect_rejects_non_bank(self, capsys, tmp_path):
        assert main(["index", "inspect", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_index_inspect_rejects_corrupt_manifest(self, capsys, tmp_path):
        bank = tmp_path / "bank"
        assert main(["index", "build", "youtube", str(bank), "--scale",
                     "0.05", "--num-forests", "3", "--seed", "11"]) == 0
        capsys.readouterr()
        (bank / "manifest.json").write_text("{not json")
        assert main(["index", "inspect", str(bank)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(bank) in err

    def test_serve_dry_run_process_executor(self, capsys):
        assert main(["serve", "--dry-run", "--executor", "process",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "executor        process" in out

    def test_experiment_list(self, capsys):
        assert main(["experiment", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "table1" in out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_experiment_runs_small_driver(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_GRAPH_SCALE", "0.05")
        monkeypatch.setenv("REPRO_BENCH_QUERIES", "2")
        monkeypatch.setenv("REPRO_BENCH_BUDGET", "0.05")
        assert main(["experiment", "ablation_push_variants"]) == 0
        out = capsys.readouterr().out
        assert "residual_ceiling" in out

    def test_trace_tail(self, capsys):
        fixture = str(GOLDEN_DIR / "slowlog_fixture.jsonl")
        assert main(["trace", "tail", fixture, "-n", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("ok ") and "inline" in lines[0]
        assert lines[1].startswith("ERR") and "outside" in lines[1]

    def test_trace_missing_file_returns_2(self, capsys, tmp_path):
        assert main(["trace", "summarize",
                     str(tmp_path / "nope.jsonl")]) == 2

    def test_trace_export_chrome(self, capsys, tmp_path):
        fixture = str(GOLDEN_DIR / "slowlog_fixture.jsonl")
        out = str(tmp_path / "trace.json")
        assert main(["trace", "export", fixture, "--out", out]) == 0
        message = capsys.readouterr().out
        assert "exported" in message and out in message
        document = json.loads(Path(out).read_text())
        events = document["traceEvents"]
        assert {event["ph"] for event in events} == {"M", "X"}
        assert document["displayTimeUnit"] == "ms"
        # without --out the JSON document goes to stdout
        assert main(["trace", "export", fixture]) == 0
        piped = json.loads(capsys.readouterr().out)
        assert piped == document

    def test_trace_export_missing_file_returns_2(self, capsys,
                                                 tmp_path):
        assert main(["trace", "export",
                     str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err


def _statusz_payload() -> dict:
    return {
        "status": "ok", "graph": "youtube", "uptime_seconds": 12.4,
        "queue_depth": 1,
        "totals": {"requests": 42, "rejected": 2, "errors": 1,
                   "batches": 9, "straggler_folds": 3},
        "windows": {
            "60s": {
                "window_seconds": 60.0,
                "counters": {
                    "requests": {"total": 10.0, "rate": 0.17},
                    "errors": {"total": 1.0, "rate": 0.02}},
                "histograms": {
                    "latency": {"count": 10, "p50": 0.01,
                                "p99": 0.25}}},
            "300s": {
                "window_seconds": 300.0,
                "counters": {}, "histograms": {}},
        },
        "slo": [{"name": "availability", "state": "ok",
                 "fast_burn": 0.5, "slow_burn": 0.1,
                 "objective": 0.999}],
        "tenants": [{"tenant": "acme", "requests": 30, "rejected": 2,
                     "errors": 1, "work": 1234.0,
                     "p50_seconds": 0.01, "p99_seconds": 0.2}],
        "shards": [{"shard": 0, "folds": 12, "straggler_folds": 0,
                    "fold_p50_seconds": 0.001,
                    "fold_p99_seconds": 0.002},
                   {"shard": 1, "folds": 12, "straggler_folds": 3,
                    "fold_p50_seconds": 0.5,
                    "fold_p99_seconds": 0.9}],
    }


class TestStatuszSurfaces:
    """`repro top`, `repro obs report`, and the shared renderer."""

    def test_render_statusz_fixed_payload(self):
        from repro.cli import render_statusz
        text = render_statusz(_statusz_payload())
        assert "repro service — ok" in text
        assert "graph youtube" in text
        assert "requests 42" in text
        assert "straggler folds 3" in text
        # windows sorted numerically, not lexically
        assert text.index("60s") < text.index("300s")
        assert "availability" in text and "0.9990" in text
        assert "acme" in text
        lines = text.splitlines()
        (shard_row,) = [line for line in lines
                        if line.startswith("1 ")]
        assert "3" in shard_row.split()

    def test_render_statusz_minimal_payload(self):
        from repro.cli import render_statusz
        text = render_statusz({})
        assert text.startswith("repro service")
        # no tables without data: just the two header lines
        assert len(text.splitlines()) == 2

    def test_obs_report(self, capsys, tmp_path):
        snapshot = tmp_path / "statusz.json"
        snapshot.write_text(json.dumps(_statusz_payload()))
        assert main(["obs", "report", str(snapshot)]) == 0
        out = capsys.readouterr().out
        assert "repro service — ok" in out
        assert "acme" in out and "availability" in out

    def test_obs_report_bad_inputs_return_2(self, capsys, tmp_path):
        assert main(["obs", "report",
                     str(tmp_path / "missing.json")]) == 2
        assert "error:" in capsys.readouterr().err
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        assert main(["obs", "report", str(bad)]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_top_once(self, capsys, monkeypatch):
        import io
        import urllib.request

        body = json.dumps(_statusz_payload()).encode()

        class _Response(io.BytesIO):
            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

        def fake_urlopen(url, timeout=None):
            assert url == "http://127.0.0.1:8471/statusz"
            return _Response(body)

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        assert main(["top", "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro service — ok" in out
        assert "acme" in out

    def test_top_unreachable_returns_2(self, capsys):
        assert main(["top", "--once",
                     "--url", "http://127.0.0.1:9"]) == 2
        assert "cannot reach" in capsys.readouterr().err


class TestGoldenOutput:
    """Byte-exact CLI regression tests against committed transcripts."""

    QUERY_SOURCE = ["query", "source", "youtube", "0", "--scale", "0.05",
                    "--alpha", "0.1", "--top", "5", "--seed", "2022"]
    QUERY_TARGET = ["query", "target", "youtube", "1", "--scale", "0.05",
                    "--alpha", "0.1", "--top", "5", "--seed", "2022"]

    def test_query_source_speedlv(self, capsys):
        assert main(self.QUERY_SOURCE) == 0
        _assert_matches_golden("query_source_speedlv.txt",
                               capsys.readouterr().out)

    def test_query_target_backlv(self, capsys):
        assert main(self.QUERY_TARGET) == 0
        _assert_matches_golden("query_target_backlv.txt",
                               capsys.readouterr().out)

    def test_selfcheck(self, capsys):
        assert main(["selfcheck", "--seed", "2022"]) == 0
        _assert_matches_golden("selfcheck.txt", capsys.readouterr().out)

    def test_serve_dry_run(self, capsys):
        assert main(["serve", "--graph", "youtube", "--scale", "0.05",
                     "--alpha", "0.1", "--port", "9000", "--max-batch",
                     "16", "--max-wait-ms", "5", "--cache-entries", "64",
                     "--seed", "2022", "--dry-run"]) == 0
        _assert_matches_golden("serve_dry_run.txt",
                               capsys.readouterr().out)

    def test_index_build_inspect(self, capsys, tmp_path):
        """`repro index` build + inspect transcript is byte-stable."""
        bank = str(tmp_path / "bank")
        assert main(["index", "build", "youtube", bank, "--scale", "0.05",
                     "--alpha", "0.1", "--num-forests", "4",
                     "--seed", "2022"]) == 0
        build_out = capsys.readouterr().out
        assert main(["index", "inspect", bank]) == 0
        _assert_matches_golden("index_build_inspect.txt",
                               build_out + "---\n"
                               + capsys.readouterr().out)

    def test_trace_summarize(self, capsys):
        """`repro trace summarize` on the canned slow log is byte-stable."""
        fixture = str(GOLDEN_DIR / "slowlog_fixture.jsonl")
        assert main(["trace", "summarize", fixture]) == 0
        _assert_matches_golden("trace_summarize.txt",
                               capsys.readouterr().out)

    def test_index_build_dynamic_then_mutate(self, capsys, tmp_path,
                                             monkeypatch):
        """`repro index build --dynamic` + `mutate` transcript is
        byte-stable (run from tmp_path so the bank path is relative)."""
        monkeypatch.chdir(tmp_path)
        assert main(["index", "build", "youtube", "bank",
                     "--scale", "0.05", "--alpha", "0.1", "--dynamic",
                     "--num-forests", "3", "--seed", "2022"]) == 0
        build_out = capsys.readouterr().out
        assert main(["index", "mutate", "bank",
                     "--upsert", "0:3:2.0", "--seed", "2022"]) == 0
        _assert_matches_golden("index_dynamic_mutate.txt",
                               build_out + "---\n"
                               + capsys.readouterr().out)


class TestErrorTranscripts:
    """Golden stderr transcripts for the CLI's refusal paths: the
    exact wording users see on malformed query modes and bad `index
    mutate` invocations is part of the interface."""

    def test_query_and_mutate_error_paths(self, capsys, tmp_path,
                                          monkeypatch):
        monkeypatch.chdir(tmp_path)  # keeps bank paths relative
        query = ["query", "source", "youtube"]
        blocks = [
            _error_transcript(
                query + ["0", "--scale", "0.05", "--seeds", "1,2",
                         "--pair", "3"], capsys),
            _error_transcript(
                query + ["0", "--scale", "0.05", "--top-k", "5",
                         "--pair", "3"], capsys),
            _error_transcript(query + ["--scale", "0.05"], capsys),
            _error_transcript(
                ["query", "target", "youtube", "0", "--scale", "0.05",
                 "--top-k", "5"], capsys),
            _error_transcript(
                query + ["--scale", "0.05", "--seeds", "1,two"], capsys),
            _error_transcript(
                ["index", "mutate", "missing-bank",
                 "--upsert", "0:1:2.0"], capsys),
            _error_transcript(["index", "mutate", "missing-bank"],
                              capsys),
            _error_transcript(
                ["index", "mutate", "missing-bank", "--add", "1:2:3:4"],
                capsys),
        ]
        _assert_matches_golden("cli_error_paths.txt",
                               "---\n".join(blocks))

    def test_mutate_rejects_static_bank(self, capsys, tmp_path):
        bank = str(tmp_path / "static-bank")
        assert main(["index", "build", "youtube", bank, "--scale", "0.05",
                     "--num-forests", "2", "--seed", "5"]) == 0
        capsys.readouterr()
        assert main(["index", "mutate", bank,
                     "--upsert", "0:1:2.0"]) == 2
        err = capsys.readouterr().err
        assert "not a dynamic forest index" in err
        assert "repro index build --dynamic" in err

    def test_mutate_bad_specs_fail_before_loading(self, capsys,
                                                  tmp_path):
        """Spec validation must not require the bank to exist."""
        for argv in (["index", "mutate", "nope", "--remove", "0:1:2.0"],
                     ["index", "mutate", "nope", "--set-weight", "0:1"],
                     ["index", "mutate", "nope", "--add", "0:0"]):
            assert main(argv) == 2
            assert "error:" in capsys.readouterr().err
