"""Chrome-trace round-trip: nested spans + counters + ring events survive
serialization, begin/end pairing holds, timestamps stay sane."""

import json

from repro.obs.export import chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder


class _FakeSeries:
    def __init__(self, times, values):
        self.times = times
        self.values = values


class _FakeSampler:
    """Sampler look-alike: named counter curves + a raw dump."""

    def __init__(self):
        self.series = {
            "frag.contiguity": _FakeSeries([0.0, 1.0, 2.0], [1.0, 0.6, 0.9]),
        }

    def to_dict(self):
        return {"samples": 3}


def _recorder():
    rec = SpanRecorder()
    run = rec.start("phase.run", 0.0, track="main")
    inner = rec.start("phase.inner", 0.5, track="main", step=1)
    rec.finish(inner, 1.5)
    rec.finish(run, 2.0)
    rec.event("block.cmd", 0.7, track="block", op="read")
    return rec


def _roundtrip(doc):
    return json.loads(json.dumps(doc))


def test_full_document_survives_json_roundtrip(tmp_path):
    doc = chrome_trace(_recorder(), MetricsRegistry(), sampler=_FakeSampler())
    parsed = _roundtrip(doc)
    assert parsed == doc  # no non-JSON types anywhere
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(doc))
    assert json.loads(path.read_text()) == doc


def test_nested_spans_pair_and_nest_in_time():
    doc = _roundtrip(chrome_trace(_recorder()))
    slices = {e["name"]: e for e in doc["traceEvents"]
              if e["ph"] == "X" and e["name"].startswith("phase.")}
    outer, inner = slices["phase.run"], slices["phase.inner"]
    # complete events: one entry per span, duration pairs begin with end
    assert outer["ts"] == 0.0 and outer["dur"] == 2.0e6
    assert inner["ts"] == 0.5e6 and inner["dur"] == 1.0e6
    # the child slice nests inside the parent's window on the same track
    assert outer["ts"] <= inner["ts"]
    assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]
    assert inner["tid"] == outer["tid"]
    assert inner["args"] == {"step": 1}


def test_counter_track_is_monotonic_in_time():
    doc = _roundtrip(chrome_trace(_recorder(), sampler=_FakeSampler()))
    counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
    assert [e["name"] for e in counters] == ["frag.contiguity"] * 3
    stamps = [e["ts"] for e in counters]
    assert stamps == sorted(stamps) and all(ts >= 0 for ts in stamps)
    assert [e["args"]["value"] for e in counters] == [1.0, 0.6, 0.9]
    assert doc["fragTimeline"] == {"samples": 3}


def test_all_timestamps_non_negative_microseconds():
    doc = _roundtrip(chrome_trace(
        _recorder(), MetricsRegistry(), sampler=_FakeSampler(),
    ))
    for event in doc["traceEvents"]:
        if "ts" in event:
            assert event["ts"] >= 0
        if event["ph"] == "X":
            assert event["dur"] >= 0
