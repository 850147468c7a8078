"""Exporter outputs: Chrome trace schema, JSONL dumps, Prometheus text."""

import json

from repro.obs.exporters import (
    chrome_trace_events,
    metrics_rows,
    prometheus_text,
    write_chrome_trace,
    write_metrics_jsonl,
    write_spans_jsonl,
)

from .conftest import NUM_RANKS


class TestChromeTrace:
    """The distributed RD run must produce a schema-valid trace."""

    def test_file_is_valid_trace_event_json(self, rd_run, tmp_path):
        obs, _, _ = rd_run
        path = tmp_path / "trace.json"
        write_chrome_trace(obs, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert doc["displayTimeUnit"] == "ms"
        assert len(doc["traceEvents"]) > 0

    def test_event_schema(self, rd_run):
        obs, _, _ = rd_run
        events = chrome_trace_events(obs)
        assert {e["ph"] for e in events} <= {"X", "M", "s", "f"}
        for e in events:
            assert e["pid"] == 0
            if e["ph"] == "X":
                assert e["cat"] in ("span", "comm")
                assert isinstance(e["name"], str)
                assert e["ts"] >= 0.0 and e["dur"] >= 0.0
                assert 0 <= e["tid"] < NUM_RANKS

    def test_one_lane_per_rank(self, rd_run):
        obs, _, _ = rd_run
        events = chrome_trace_events(obs)
        names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {f"rank {r}" for r in range(NUM_RANKS)}
        slice_tids = {e["tid"] for e in events if e["ph"] == "X"}
        assert slice_tids == set(range(NUM_RANKS))

    def test_flow_events_pair_across_ranks(self, rd_run):
        obs, _, _ = rd_run
        events = chrome_trace_events(obs)
        starts = {e["id"]: e for e in events if e["ph"] == "s"}
        finishes = {e["id"]: e for e in events if e["ph"] == "f"}
        assert starts and set(starts) == set(finishes)
        for flow_id, s in starts.items():
            f = finishes[flow_id]
            assert s["cat"] == f["cat"] == "msg"
            assert s["tid"] != f["tid"]  # messages cross rank lanes
            assert s["ts"] <= f["ts"]

    def test_nested_slices_stay_inside_parents(self, rd_run):
        """Step slices must contain their phase child slices in time."""
        obs, _, _ = rd_run
        events = [e for e in chrome_trace_events(obs) if e["ph"] == "X"]
        for rank in range(NUM_RANKS):
            steps = [
                e for e in events
                if e["tid"] == rank and e["name"] == "step"
            ]
            phases = [
                e for e in events
                if e["tid"] == rank and e["name"] == "solve"
            ]
            assert steps and phases
            for ph in phases:
                assert any(
                    st["ts"] <= ph["ts"]
                    and ph["ts"] + ph["dur"] <= st["ts"] + st["dur"] + 1e-6
                    for st in steps
                )


class TestJsonl:
    def test_spans_jsonl_round_trips(self, rd_run, tmp_path):
        obs, _, _ = rd_run
        path = tmp_path / "spans.jsonl"
        write_spans_jsonl(obs, path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert all(r["t_end"] is not None for r in rows)
        ids = {r["span_id"] for r in rows}
        for r in rows:
            if r["parent_id"] is not None:
                assert r["parent_id"] in ids
        assert {r["rank"] for r in rows} == set(range(NUM_RANKS))

    def test_metrics_jsonl_has_per_rank_and_merged(self, rd_run, tmp_path):
        obs, _, _ = rd_run
        path = tmp_path / "metrics.jsonl"
        write_metrics_jsonl(obs, path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        merged = [r for r in rows if r.get("merged")]
        per_rank = [r for r in rows if not r.get("merged")]
        assert merged and per_rank
        names = {r["name"] for r in rows}
        assert "phase_seconds" in names
        assert "cg_iterations_total" in names

    def test_metrics_rows_match_registry(self, rd_run):
        obs, _, _ = rd_run
        rows = metrics_rows(obs.metrics)
        steps = [r for r in rows if r["name"] == "rd_steps_total"]
        assert sum(r["value"] for r in steps) == 6.0 * NUM_RANKS


class TestPrometheus:
    def test_exposition_format(self, rd_run):
        obs, _, _ = rd_run
        text = prometheus_text(obs.metrics)
        assert text.endswith("\n")
        lines = text.splitlines()
        assert any(line.startswith("# HELP") for line in lines)
        assert any(line.startswith("# TYPE") for line in lines)
        for line in lines:
            if line.startswith("#") or not line:
                continue
            name_part, value = line.rsplit(" ", 1)
            float(value)  # every sample value parses
            assert name_part

    def test_histogram_series_are_complete(self, rd_run):
        obs, _, _ = rd_run
        lines = prometheus_text(obs.metrics).splitlines()
        buckets = [
            line for line in lines
            if line.startswith("phase_seconds_bucket") and 'le="+Inf"' in line
        ]
        assert buckets  # one +Inf bucket per (rank, phase) series
        assert any(line.startswith("phase_seconds_sum") for line in lines)
        assert any(line.startswith("phase_seconds_count") for line in lines)

    def test_rank_is_a_label(self, rd_run):
        obs, _, _ = rd_run
        text = prometheus_text(obs.metrics)
        for r in range(NUM_RANKS):
            assert f'rank="{r}"' in text


class TestPrometheusHardening:
    """Spec conformance on hostile names, labels, and help strings."""

    def _registry(self):
        from repro.obs.metrics import MetricsRegistry

        return MetricsRegistry()

    def test_help_and_type_precede_samples(self):
        reg = self._registry()
        reg.counter("requests_total", help="Total requests.").inc(3.0)
        reg.gauge("depth", help="Queue depth.").set(2.0)
        lines = prometheus_text(reg).splitlines()
        for name, kind in (("requests_total", "counter"), ("depth", "gauge")):
            help_i = lines.index(f"# HELP {name} " + (
                "Total requests." if kind == "counter" else "Queue depth."))
            type_i = lines.index(f"# TYPE {name} {kind}")
            sample_i = next(i for i, line in enumerate(lines)
                            if line.startswith(name + "{"))
            assert help_i < type_i < sample_i

    def test_empty_help_falls_back_to_name(self):
        reg = self._registry()
        reg.counter("plain_total").inc()
        assert "# HELP plain_total plain_total" in prometheus_text(reg)

    def test_help_escapes_backslash_and_newline_only(self):
        reg = self._registry()
        reg.counter("c_total", help='path\\to "quoted"\nsecond').inc()
        text = prometheus_text(reg)
        assert '# HELP c_total path\\\\to "quoted"\\nsecond' in text

    def test_label_values_escape_quote_backslash_newline(self):
        reg = self._registry()
        reg.counter("c_total").inc(labels={"path": 'a\\b"c\nd'})
        text = prometheus_text(reg)
        assert 'path="a\\\\b\\"c\\nd"' in text
        # The physical line must stay a single line.
        assert all("\n" not in line for line in text.splitlines())

    def test_illegal_metric_and_label_names_are_sanitized(self):
        reg = self._registry()
        reg.counter("phase.solve-time:total").inc(
            labels={"mesh-shape": "5x5", "9lives": "yes"}
        )
        reg.gauge("2fast").set(1.0)
        text = prometheus_text(reg)
        assert "phase_solve_time:total" in text  # colon is legal, dot/dash not
        assert 'mesh_shape="5x5"' in text
        assert '_9lives="yes"' in text  # label may not start with a digit
        assert "# TYPE _2fast gauge" in text
        assert not any(line.startswith("2fast")
                       for line in text.splitlines())

    def test_histogram_buckets_are_ordered_cumulative_with_inf(self):
        reg = self._registry()
        hist = reg.histogram("lat_seconds", help="Latency.",
                             buckets=(0.1, 0.5, 2.0))
        for v in (0.05, 0.3, 0.3, 1.0, 10.0):
            hist.observe(v)
        lines = prometheus_text(reg).splitlines()
        bucket_lines = [l for l in lines if l.startswith("lat_seconds_bucket")]
        les, counts = [], []
        for line in bucket_lines:
            label_part, value = line.rsplit(" ", 1)
            les.append(label_part.split('le="')[1].split('"')[0])
            counts.append(int(value))
        assert les == ["0.1", "0.5", "2.0", "+Inf"]  # ordered, +Inf last
        assert counts == sorted(counts)  # cumulative monotone
        assert counts[-1] == 5  # +Inf counts every observation
        assert "lat_seconds_sum" in "\n".join(lines)
        assert any(l.startswith("lat_seconds_count") and l.endswith(" 5")
                   for l in lines)

    def test_histogram_le_is_a_label_alongside_rank(self):
        reg = self._registry()
        reg.histogram("h_seconds", buckets=(1.0,)).observe(0.5, rank=3)
        text = prometheus_text(reg)
        assert 'le="+Inf"' in text and 'rank="3"' in text

    def test_nan_and_inf_values_format_per_spec(self):
        import math

        reg = self._registry()
        reg.gauge("g").set(math.inf, rank=0)
        reg.gauge("g").set(-math.inf, rank=1)
        text = prometheus_text(reg)
        assert 'g{rank="0"} +Inf' in text
        assert 'g{rank="1"} -Inf' in text


class TestAtomicExport:
    def test_export_that_raises_half_way_keeps_the_previous_generation(
        self, tmp_path, monkeypatch
    ):
        """``repro health <dir>`` racing (or following) a failed export
        must find whole files: every one is published by rename."""
        import pytest

        from repro.obs.core import Observability, ObsConfig
        from repro.obs.spans import Span

        obs = Observability(ObsConfig(out_dir=tmp_path, prefix="run"))
        view = obs.wall_view()
        with view.span("first"):
            view.count("steps_total")
        before = {path.name: path.read_bytes() for path in obs.export()}
        assert sorted(before) == [
            "run-metrics.jsonl", "run-metrics.prom", "run-spans.jsonl",
            "run-trace.json",
        ]
        with view.span("second"):
            view.count("steps_total")

        def dies(span):
            raise RuntimeError("span died mid-export")

        monkeypatch.setattr(Span, "to_dict", dies)
        with pytest.raises(RuntimeError, match="mid-export"):
            obs.export()
        after = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert sorted(after) == sorted(before)  # no *.tmp, nothing half-made
        for name in ("run-spans.jsonl", "run-metrics.jsonl", "run-metrics.prom"):
            assert after[name] == before[name]
        json.loads(after["run-trace.json"])
