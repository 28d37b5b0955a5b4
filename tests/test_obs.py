"""Observability layer: tracing, histograms, slow log, profiler.

Unit coverage for ``repro.obs`` plus the acceptance-level integration
test: a process-executor service with full head sampling must produce
debug span trees whose worker-side fold spans were recorded in a
forked child and stitched across the pipe — while serving payloads
byte-identical to a tracing-disabled twin.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

import pytest

from repro.graph.generators import erdos_renyi
from repro.obs.histogram import (
    DEFAULT_BUCKETS,
    STAGES,
    Histogram,
    format_le,
)
from repro.obs.profiler import SamplingProfiler
from repro.obs.slowlog import (
    ENTRY_FIELDS,
    SlowLog,
    format_entry,
    read_slowlog,
    summarize_entries,
)
from repro.obs.exposition import check_exposition
from repro.obs.tracing import (
    NULL_SPAN,
    NULL_TRACER,
    Span,
    Tracer,
    chrome_trace_events,
    new_request_id,
)
from repro.service import PPRService, ServiceConfig, ServiceMetrics

SEED = 2022
ALPHA = 0.2
EPSILON = 0.5


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(300, 0.02, rng=SEED)


# ----------------------------------------------------------------------
# Spans and tracer
# ----------------------------------------------------------------------
class TestSpan:
    def test_nesting_offsets_and_durations(self):
        root = Span("query", request_id="r-1")
        with root.child("admission"):
            pass
        child = root.child("fold", batch=4)
        time.sleep(0.002)
        child.finish()
        root.finish()

        tree = root.to_dict()
        assert tree["name"] == "query"
        assert tree["offset_ms"] == 0.0
        names = [node["name"] for node in tree["children"]]
        assert names == ["admission", "fold"]
        fold = tree["children"][1]
        assert fold["attrs"] == {"batch": 4}
        assert fold["duration_ms"] >= 1.0
        # children start inside the parent's window
        assert 0.0 <= fold["offset_ms"] <= tree["duration_ms"]

    def test_finish_is_idempotent(self):
        span = Span("x")
        first = span.finish().end
        time.sleep(0.001)
        assert span.finish().end == first

    def test_context_manager_records_exception(self):
        span = Span("boom")
        with pytest.raises(RuntimeError):
            with span:
                raise RuntimeError("bad fold")
        assert span.end is not None
        assert span.attrs["error"] == "RuntimeError: bad fold"

    def test_add_raw_grafts_dict_list_and_ignores_none(self):
        root = Span("parent")
        worker = Span("worker", pid=1234)
        worker.child("fold").finish()
        raw = worker.finish().to_raw()

        root.add_raw(None)
        assert root.children == []
        root.add_raw(raw)
        root.add_raw([raw, raw])
        root.finish()

        tree = root.to_dict()
        grafted = tree["children"]
        assert [node["name"] for node in grafted] == ["worker"] * 3
        assert grafted[0]["children"][0]["name"] == "fold"
        assert grafted[0]["attrs"]["pid"] == 1234

    def test_null_span_is_inert(self):
        assert NULL_SPAN.enabled is False
        assert NULL_SPAN.child("anything") is NULL_SPAN
        assert NULL_SPAN.annotate(key="value") is NULL_SPAN
        assert NULL_SPAN.finish() is NULL_SPAN
        NULL_SPAN.add_raw({"name": "ignored"})
        assert NULL_SPAN.children == []
        assert NULL_SPAN.duration == 0.0
        with NULL_SPAN as span:
            assert span is NULL_SPAN
        assert NULL_SPAN.to_dict() == {}


class TestTracer:
    def test_sampling_is_deterministic_per_seed(self):
        ids = [f"req-{index}" for index in range(200)]
        first = Tracer(0.37, seed=7)
        second = Tracer(0.37, seed=7)
        other_seed = Tracer(0.37, seed=8)
        decisions = [first.should_sample(rid) for rid in ids]
        assert decisions == [second.should_sample(rid) for rid in ids]
        assert decisions != [other_seed.should_sample(rid)
                             for rid in ids]
        # the rate is roughly honoured (crc32 is uniform enough)
        assert 0.15 < sum(decisions) / len(ids) < 0.60

    def test_rate_bounds(self):
        assert not Tracer(0.0).should_sample("any")
        assert Tracer(1.0).should_sample("any")
        with pytest.raises(ValueError):
            Tracer(1.5)
        with pytest.raises(ValueError):
            Tracer(0.5, capacity=0)

    def test_disabled_tracer_returns_null_span(self):
        tracer = Tracer(0.0)
        assert tracer.trace("query", "id-1") is NULL_SPAN
        assert tracer.finish(NULL_SPAN) is None
        assert tracer.stats()["dropped"] == 1

    def test_force_bypasses_sampling(self):
        tracer = Tracer(0.0)
        span = tracer.trace("index_refresh", "id-1", force=True)
        assert span.enabled
        tree = tracer.finish(span)
        assert tree["name"] == "index_refresh"
        assert tracer.traces() == [tree]

    def test_ring_is_bounded(self):
        tracer = Tracer(1.0, capacity=4)
        for index in range(10):
            tracer.finish(tracer.trace("query", f"id-{index}"))
        kept = tracer.traces()
        assert len(kept) == 4
        assert kept[-1]["attrs"]["request_id"] == "id-9"
        assert tracer.stats()["buffered"] == 4

    def test_null_tracer(self):
        assert NULL_TRACER.trace("x", force=True) is NULL_SPAN
        assert NULL_TRACER.stats()["sampled"] == 0

    def test_request_ids_are_unique_and_pid_tagged(self):
        first, second = new_request_id(), new_request_id()
        assert first != second
        assert first.split("-")[0] == f"{os.getpid():x}"


# ----------------------------------------------------------------------
# Histograms
# ----------------------------------------------------------------------
class TestLatencyHistogram:
    """Since-boot reads of :class:`Histogram` (windowed reads are in
    ``tests/test_timeseries.py::TestRollingHistogram``)."""

    def test_buckets_ascending_and_le_format(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
        assert format_le(0.025) == "0.025"
        assert format_le(10.0) == "10"

    def test_snapshot_is_cumulative_with_inf(self):
        hist = Histogram(bounds=(0.01, 0.1, 1.0))
        for value in (0.005, 0.005, 0.05, 0.5, 5.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(5.56)
        assert snap["buckets"] == [("0.01", 2), ("0.1", 3), ("1", 4),
                                   ("+Inf", 5)]

    def test_quantile_reports_bucket_upper_bound(self):
        hist = Histogram(bounds=(0.01, 0.1, 1.0))
        assert hist.quantile(0.5) == 0.0  # empty
        for _ in range(9):
            hist.observe(0.005)
        hist.observe(0.5)
        assert hist.quantile(0.5) == 0.01
        assert hist.quantile(0.99) == 1.0
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_quantile_zero_is_lowest_non_empty_bucket(self):
        hist = Histogram()
        hist.observe(0.5)
        assert hist.quantile(0.0) == 0.5
        overflow = Histogram(bounds=(0.01, 0.1))
        overflow.observe(7.0)
        assert overflow.quantile(0.0) == 0.1

    def test_windowed_read_needs_a_ring(self):
        with pytest.raises(ValueError):
            Histogram().count(60.0)
        with pytest.raises(ValueError):
            Histogram(capacity=1)

    def test_threaded_observers_lose_nothing(self):
        # a ring-carrying histogram, so both the since-boot counts and
        # the ring slot see every concurrent increment
        hist = Histogram(interval=1.0, capacity=4)
        per_thread = 500
        workers = 8

        def worker(seed):
            for index in range(per_thread):
                hist.observe((seed + index % 7) * 1e-4, now=1.0)

        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert hist.count() == workers * per_thread
        assert hist.snapshot()["buckets"][-1][1] == workers * per_thread
        assert hist.count(4.0, now=1.0) == workers * per_thread

    def test_registry_is_fixed_at_construction(self):
        metrics = ServiceMetrics()
        assert tuple(metrics.stages) == STAGES
        metrics.record_stage("fold", 0.01)
        assert metrics.stages["fold"].count() == 1
        assert metrics.stages["merge"].quantile(0.5) == 0.0
        with pytest.raises(KeyError):
            metrics.record_stage("not_a_stage", 0.01)


# ----------------------------------------------------------------------
# Slow log
# ----------------------------------------------------------------------
def _record(log, **overrides):
    entry = dict(request_id="abc-1", endpoint="query", kind="source",
                 node=7, alpha=ALPHA, epsilon=EPSILON, seconds=0.5)
    entry.update(overrides)
    return log.record(**entry)


class TestSlowLog:
    def test_admission_threshold_and_errors(self):
        log = SlowLog(threshold_ms=100.0)
        assert _record(log, seconds=0.05) is None  # fast, skipped
        assert _record(log, seconds=0.25) is not None  # slow, kept
        fast_error = _record(log, seconds=0.001, error="boom")
        assert fast_error is not None and fast_error["status"] == "error"
        stats = log.stats()
        assert stats["written"] == 2 and stats["skipped"] == 1

    def test_entry_schema_is_stable(self):
        log = SlowLog(threshold_ms=0.0)
        entry = _record(log, batch_size=4, disposition="executor",
                        work={"pushes": 12}, trace={"name": "query"})
        assert tuple(sorted(entry)) == tuple(sorted(ENTRY_FIELDS))
        assert entry["disposition"] == "executor"
        assert entry["work"] == {"pushes": 12}
        assert entry["trace"] == {"name": "query"}

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        with SlowLog(path, threshold_ms=0.0) as log:
            _record(log, seconds=0.1)
            _record(log, seconds=0.2, error="boom")
        entries = read_slowlog(path)
        assert [entry["seconds"] for entry in entries] == [0.1, 0.2]
        # every line is standalone JSON with sorted keys
        lines = path.read_text().splitlines()
        assert all(json.loads(line) for line in lines)
        assert lines[0] == json.dumps(json.loads(lines[0]),
                                      sort_keys=True)

    def test_read_rejects_corrupt_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            read_slowlog(path)

    def test_summarize_and_format(self):
        log = SlowLog(threshold_ms=0.0)
        trace = {"name": "query", "duration_ms": 200.0, "children": [
            {"name": "fold", "duration_ms": 150.0}]}
        _record(log, seconds=0.2, disposition="executor", batch_size=3,
                trace=trace)
        _record(log, seconds=0.4, error="boom", disposition="error")
        summary = summarize_entries(log.recent())
        overview = summary["overview"]
        assert overview["entries"] == 2
        assert overview["errors"] == 1
        assert overview["max_seconds"] == 0.4
        assert overview["dispositions"] == {"error": 1, "executor": 1}
        spans = {row["span"]: row for row in summary["stages"]}
        assert spans["fold"]["count"] == 1
        assert spans["fold"]["total_ms"] == 150.0

        lines = [format_entry(entry) for entry in log.recent()]
        assert "batch=3" in lines[0] and "executor" in lines[0]
        assert lines[1].startswith("ERR") and "boom" in lines[1]


class TestSlowLogRotation:
    def test_rotates_at_size_cap(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        with SlowLog(path, threshold_ms=0.0, max_bytes=600) as log:
            for index in range(12):
                _record(log, request_id=f"rid-{index}", seconds=0.1)
            stats = log.stats()
        assert stats["rotations"] >= 1
        assert stats["max_bytes"] == 600
        rotated = tmp_path / "slow.jsonl.1"
        assert rotated.exists()
        # both generations stay within ~max_bytes each
        assert path.stat().st_size <= 600 + 400
        assert rotated.stat().st_size <= 600 + 400
        # every admitted entry survives in exactly one generation
        # (older generations beyond .1 are dropped by design)
        live = read_slowlog(path)
        old = read_slowlog(rotated)
        assert live and old
        ids = [entry["request_id"] for entry in old + live]
        assert ids == sorted(ids, key=lambda rid: int(rid.split("-")[1]))

    def test_no_rotation_without_cap(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        with SlowLog(path, threshold_ms=0.0) as log:
            for index in range(20):
                _record(log, request_id=f"rid-{index}", seconds=0.1)
            assert log.stats()["rotations"] == 0
        assert not (tmp_path / "slow.jsonl.1").exists()
        assert len(read_slowlog(path)) == 20

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            SlowLog(max_bytes=0)

    def test_memory_only_cap_is_harmless(self):
        log = SlowLog(threshold_ms=0.0, max_bytes=100)
        for _ in range(5):
            _record(log, seconds=0.1)
        assert log.stats()["rotations"] == 0


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------
class TestChromeExport:
    def _tree(self):
        root = Span("query", request_id="rid-9")
        with root.child("admission"):
            pass
        with root.child("fold", batch=2):
            time.sleep(0.001)
        return root.finish().to_dict()

    def test_trees_become_threads_of_complete_events(self):
        document = chrome_trace_events([self._tree(), self._tree()])
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        phases = {event["ph"] for event in events}
        assert phases == {"M", "X"}
        metadata = [event for event in events if event["ph"] == "M"]
        assert metadata[0]["args"]["name"] == "repro-serve"
        # one thread_name per tree, request id in the label
        thread_names = [event for event in metadata
                        if event["name"] == "thread_name"]
        assert len(thread_names) == 2
        assert "rid-9" in thread_names[0]["args"]["name"]
        complete = [event for event in events if event["ph"] == "X"]
        assert {event["name"] for event in complete} == {
            "query", "admission", "fold"}
        for event in complete:
            assert event["dur"] >= 0.0 and event["ts"] >= 0.0
        fold = next(event for event in complete
                    if event["name"] == "fold")
        assert fold["args"]["batch"] == 2

    def test_empty_and_malformed_trees_are_skipped(self):
        document = chrome_trace_events([{}, None, "junk"])
        assert len(document["traceEvents"]) == 1  # process_name only


# ----------------------------------------------------------------------
# Exposition format checker
# ----------------------------------------------------------------------
VALID_EXPOSITION = (
    "# HELP repro_requests_total Requests served.\n"
    "# TYPE repro_requests_total counter\n"
    'repro_requests_total{tenant="acme"} 3\n'
    'repro_requests_total{tenant="beta"} 1\n'
    "# HELP repro_latency_seconds Latency.\n"
    "# TYPE repro_latency_seconds histogram\n"
    'repro_latency_seconds_bucket{le="0.1"} 2\n'
    'repro_latency_seconds_bucket{le="+Inf"} 4\n'
    "repro_latency_seconds_sum 1.5\n"
    "repro_latency_seconds_count 4\n"
)


class TestCheckExposition:
    def test_valid_document_passes(self):
        assert check_exposition(VALID_EXPOSITION) == []

    def test_missing_trailing_newline(self):
        failures = check_exposition(VALID_EXPOSITION.rstrip("\n"))
        assert any("newline" in failure for failure in failures)

    def test_sample_without_metadata(self):
        failures = check_exposition("orphan_total 1\n")
        assert any("HELP" in failure or "TYPE" in failure
                   for failure in failures)

    def test_duplicate_labelset_rejected(self):
        text = ("# HELP x_total X.\n# TYPE x_total counter\n"
                'x_total{a="1"} 1\nx_total{a="1"} 2\n')
        assert any("duplicate" in failure.lower()
                   for failure in check_exposition(text))

    def test_negative_counter_rejected(self):
        text = ("# HELP x_total X.\n# TYPE x_total counter\n"
                "x_total -1\n")
        assert any("counter" in failure.lower()
                   for failure in check_exposition(text))

    def test_non_monotone_buckets_rejected(self):
        text = ("# HELP h H.\n# TYPE h histogram\n"
                'h_bucket{le="0.1"} 5\nh_bucket{le="+Inf"} 3\n'
                "h_sum 1.0\nh_count 3\n")
        failures = check_exposition(text)
        assert any("monoton" in failure.lower() or "cumulative"
                   in failure.lower() for failure in failures)

    def test_missing_inf_bucket_rejected(self):
        text = ("# HELP h H.\n# TYPE h histogram\n"
                'h_bucket{le="0.1"} 5\nh_sum 1.0\nh_count 5\n')
        assert any("+Inf" in failure
                   for failure in check_exposition(text))

    def test_count_must_match_inf_bucket(self):
        text = ("# HELP h H.\n# TYPE h histogram\n"
                'h_bucket{le="+Inf"} 5\nh_sum 1.0\nh_count 4\n')
        assert any("_count" in failure
                   for failure in check_exposition(text))

    def test_bad_label_syntax_rejected(self):
        text = ("# HELP x_total X.\n# TYPE x_total counter\n"
                "x_total{not closed 1\n")
        assert check_exposition(text)

    def test_service_render_is_clean(self, graph):
        config = ServiceConfig(graph="test", alpha=ALPHA,
                               epsilon=EPSILON, budget_scale=0.05,
                               seed=SEED, max_batch=4, max_wait_ms=2.0,
                               cache_entries=8, port=0, workers=1,
                               executor="thread")
        with PPRService(config, graph=graph) as service:
            service.query("source", 3, top=5, tenant="acme")
            service.query("source", 4, top=5)
            text = service.metrics_text()
        assert check_exposition(text) == []
        assert 'tenant="acme"' in text


# ----------------------------------------------------------------------
# Profiler
# ----------------------------------------------------------------------
class TestProfiler:
    def test_samples_and_collapsed_dump(self, tmp_path):
        with SamplingProfiler(interval=0.001) as profiler:
            deadline = time.perf_counter() + 0.08
            while time.perf_counter() < deadline:
                sum(i * i for i in range(1000))
        assert profiler.samples > 0
        lines = profiler.collapsed()
        assert lines and all(" " in line for line in lines)
        stack, count = lines[0].rsplit(" ", 1)
        assert ";" in stack or "." in stack
        assert int(count) >= 1

        out = tmp_path / "profile.txt"
        assert profiler.dump(str(out)) == profiler.samples
        assert out.read_text().splitlines() == lines

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            SamplingProfiler(interval=0.0)


# ----------------------------------------------------------------------
# Acceptance: cross-process stitching + payload byte-identity
# ----------------------------------------------------------------------
def _span_nodes(tree):
    yield tree
    for child in tree.get("children", ()):
        yield from _span_nodes(child)


class TestServiceTracingIntegration:
    NODES = (0, 3, 11, 42)

    def _config(self, **overrides):
        return ServiceConfig(graph="test", alpha=ALPHA, epsilon=EPSILON,
                             budget_scale=0.05, seed=SEED, max_batch=4,
                             max_wait_ms=2.0, cache_entries=0, port=0,
                             workers=2, executor="process", **overrides)

    def test_worker_spans_stitch_and_payloads_match(self, graph):
        with PPRService(self._config(trace_sample_rate=1.0),
                        graph=graph) as traced:
            debug_payload = traced.query("source", 3, top=5, debug=True)
            traced_payloads = [traced.query("source", node, top=5)
                               for node in self.NODES]
            tracer_stats = traced.healthz()["observability"]["tracing"]
        with PPRService(self._config(), graph=graph) as plain:
            plain_payloads = [plain.query("source", node, top=5)
                              for node in self.NODES]

        # acceptance 1: the debug span tree reaches into the worker
        debug = debug_payload["debug"]
        assert debug["disposition"] == "executor"
        tree = debug["trace"]
        assert tree["name"] == "query"
        nodes = list(_span_nodes(tree))
        names = [node["name"] for node in nodes]
        for expected in ("admission", "cache_lookup", "batch",
                         "dispatch", "worker", "fold", "merge",
                         "serialize"):
            assert expected in names, f"missing span {expected}"
        worker = next(node for node in nodes if node["name"] == "worker")
        assert worker["attrs"]["pid"] != os.getpid()  # forked child
        worker_children = [node["name"]
                           for node in worker.get("children", ())]
        assert "fold" in worker_children
        assert debug["counters"]  # work counters inline
        assert tracer_stats["sampled"] >= len(self.NODES) + 1

        # acceptance 2: tracing must not perturb served bytes
        assert "debug" not in traced_payloads[0]
        assert (json.dumps(traced_payloads, sort_keys=True)
                == json.dumps(plain_payloads, sort_keys=True))

    def test_sampled_rate_zero_serves_identical_payloads(self, graph):
        """debug=1 still works (forced trace) when sampling is off."""
        with PPRService(self._config(), graph=graph) as service:
            payload = service.query("source", 3, top=5, debug=True)
            assert payload["debug"]["trace"]["name"] == "query"
            assert service.tracer.stats()["sampled"] == 1

    def test_telemetry_tenants_and_slo_do_not_perturb_payloads(
            self, graph):
        """Full telemetry (tracing + tenant labels + hair-trigger SLO
        windows) must serve bytes identical to the plain twin."""
        loud = self._config(trace_sample_rate=1.0,
                            slo_latency_ms=0.001,
                            slo_fast_window_s=1.0,
                            slo_slow_window_s=5.0,
                            slo_burn_threshold=1.0)
        with PPRService(loud, graph=graph) as traced:
            loud_payloads = [
                traced.query("source", node, top=5,
                             tenant=f"tenant-{index % 2}")
                for index, node in enumerate(self.NODES)]
            # the instrumentation itself saw the traffic...
            assert traced.metrics.tenant_table()
            assert traced.statusz()["slo"]
        with PPRService(self._config(), graph=graph) as plain:
            plain_payloads = [plain.query("source", node, top=5)
                              for node in self.NODES]
        # ...but the served bytes never change
        assert (json.dumps(loud_payloads, sort_keys=True)
                == json.dumps(plain_payloads, sort_keys=True))
