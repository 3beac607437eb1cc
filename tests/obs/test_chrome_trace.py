"""Tests for the Chrome trace exporter and timeline (``repro.obs.trace``)."""

import json

import pytest

from repro.obs import (ChromeTraceSink, ObsConfig, parse_filters,
                       render_timeline, validate_chrome_trace)
from repro.scenarios import ScenarioRunner, get
from repro.sim.tracing import TraceRecord, Tracer


def _traced_run(name, sink=None, **tracer_kwargs):
    tracer = Tracer(enabled=True, sink=sink, **tracer_kwargs)
    result = ScenarioRunner(get(name).smoke(),
                            obs=ObsConfig(tracer=tracer)).run()
    return result, tracer


class TestSink:
    def test_mesh_export_is_valid_and_spanned(self):
        sink = ChromeTraceSink()
        result, _ = _traced_run("be-uniform-4x4", sink=sink)
        assert result.passed
        payload = sink.to_payload()
        assert validate_chrome_trace(payload) == []
        cats = {ev["cat"] for ev in payload["traceEvents"]
                if ev["ph"] != "M"}
        # The per-flit timeline: injection spans, link-occupancy spans,
        # ejection instants.
        assert {"inject", "hop"} <= cats
        phs = {ev["ph"] for ev in payload["traceEvents"]}
        assert {"X", "i", "M"} == phs

    def test_ring_export_covers_eject(self):
        sink = ChromeTraceSink()
        result, _ = _traced_run("ring-cbr-8x8", sink=sink)
        assert result.passed
        payload = sink.to_payload()
        assert validate_chrome_trace(payload) == []
        cats = {ev["cat"] for ev in payload["traceEvents"]
                if ev["ph"] != "M"}
        assert {"inject", "hop", "eject"} <= cats

    def test_sources_become_named_tracks(self):
        sink = ChromeTraceSink()
        _traced_run("be-uniform-4x4", sink=sink)
        payload = sink.to_payload()
        meta = [ev for ev in payload["traceEvents"] if ev["ph"] == "M"]
        names = [ev["args"]["name"] for ev in meta]
        tids = [ev["tid"] for ev in meta]
        # One metadata record per source, tids dense and sorted.
        assert names == sorted(names)
        assert tids == list(range(len(meta)))

    def test_ingest_filters(self):
        sink = ChromeTraceSink(kinds=("hop",))
        _traced_run("be-uniform-4x4", sink=sink)
        cats = {ev["cat"] for ev in sink.to_payload()["traceEvents"]
                if ev["ph"] != "M"}
        assert cats == {"hop"}

    def test_max_events_counts_drops(self):
        sink = ChromeTraceSink(max_events=10)
        _traced_run("be-uniform-4x4", sink=sink)
        assert len(sink) == 10
        assert sink.dropped > 0
        assert sink.to_payload()["otherData"]["dropped"] == sink.dropped

    def test_json_is_canonical(self):
        sink = ChromeTraceSink()
        sink(TraceRecord(1.0, "a", "hop", {"dur_ns": 2.0, "flit": "f"}))
        text = sink.to_json()
        assert json.loads(text)  # well-formed
        assert text == sink.to_json()  # stable


class TestFilters:
    def test_parse(self):
        assert parse_filters(["source=a", "source=b", "kind=hop"]) == \
            {"source": ["a", "b"], "kind": ["hop"]}

    @pytest.mark.parametrize("bad", ["nope", "flit=x", "source=", "=v"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_filters([bad])


class TestTimeline:
    def test_render_shows_records_and_census(self):
        _, tracer = _traced_run("be-uniform-4x4")
        text = render_timeline(tracer, limit=5)
        assert "record(s) retained" in text
        assert "not shown" in text  # more than 5 records happened
        assert "hop=" in text

    def test_render_filters(self):
        _, tracer = _traced_run("be-uniform-4x4")
        text = render_timeline(tracer, kinds=("be_delivered",))
        assert "hop" not in text.splitlines()[0]
        assert "be_delivered=" in text


class TestValidator:
    def test_rejects_non_object(self):
        assert validate_chrome_trace([1]) != []

    @pytest.mark.parametrize("events", [
        [],
        [{"ph": "M", "name": "thread_name", "pid": 0, "tid": 0,
          "args": {"name": "R0.0"}}],
    ], ids=["empty", "metadata-only"])
    def test_rejects_export_without_trace_events(self, events):
        """A hop path that stops emitting leaves an export with no span
        or instant; the schema check must not pass it."""
        assert validate_chrome_trace({"traceEvents": events}) == [
            "no trace events (no X or i record)"]

    def test_rejects_bad_events(self):
        payload = {"traceEvents": [
            {"ph": "Z", "name": "x", "pid": 0, "tid": 0},
            {"ph": "X", "name": "x", "pid": 0, "tid": 0, "ts": 1.0},
            {"ph": "i", "pid": 0, "tid": 0, "ts": 1.0},
        ]}
        problems = validate_chrome_trace(payload)
        assert len(problems) == 3
