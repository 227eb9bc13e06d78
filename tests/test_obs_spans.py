"""Unit tests for repro.obs.spans."""

from repro.obs.spans import SpanRecorder


def test_span_nesting_parent_child_depth():
    rec = SpanRecorder()
    outer = rec.start("outer", 0.0)
    child = rec.start("child", 1.0)
    grandchild = rec.start("grandchild", 2.0)
    assert grandchild.parent is child and child.parent is outer
    assert (outer.depth, child.depth, grandchild.depth) == (0, 1, 2)
    rec.finish(grandchild, 3.0)
    rec.finish(child, 4.0)
    rec.finish(outer, 5.0)
    assert [s.name for s in rec.finished_spans()] == ["grandchild", "child", "outer"]
    assert outer.duration == 5.0


def test_tracks_nest_independently():
    rec = SpanRecorder()
    a = rec.start("a", 0.0, track="fg")
    b = rec.start("b", 0.0, track="bg")
    assert b.parent is None  # different track: not a child of a
    assert rec.active("fg") is a
    rec.finish(b, 1.0)
    rec.finish(a, 2.0)
    assert set(rec.tracks()) == {"fg", "bg"}


def test_finish_closes_dangling_children():
    rec = SpanRecorder()
    outer = rec.start("outer", 0.0)
    rec.start("leaked", 1.0)  # never finished explicitly
    rec.finish(outer, 5.0)
    leaked = rec.by_name("leaked")[0]
    assert leaked.finished and leaked.end == 5.0
    assert rec.active() is None


def test_event_ring_buffer_is_bounded():
    rec = SpanRecorder(max_events=8)
    for i in range(20):
        rec.event("tick", float(i), seq=i)
    assert len(rec.events) == 8
    assert rec.events[0].attrs["seq"] == 12  # oldest entries evicted


def test_event_ring_wrap_counts_drops_and_feeds_counter():
    from repro.obs.metrics import MetricsRegistry

    rec = SpanRecorder(max_events=4)
    rec.drop_counter = MetricsRegistry().counter("obs.events_dropped")
    for i in range(10):
        rec.event("tick", float(i))
    assert rec.dropped_events == 6  # 10 appended, ring holds 4
    assert rec.drop_counter.value == 6
    rec.clear()
    assert rec.dropped_events == 0  # counter keeps its cumulative value


def test_instrumentation_ring_capacities_are_configurable():
    from repro.obs.hooks import Instrumentation

    obs = Instrumentation(max_spans=3, max_events=5)
    for i in range(8):
        obs.span_finish(obs.span_start(f"s{i}", float(i)), float(i) + 0.5)
        obs.event("e", float(i))
    assert len(obs.spans.spans) == 3
    assert len(obs.spans.events) == 5
    assert obs.registry.counter("obs.events_dropped").value == 3


def test_span_cap_counts_drops():
    rec = SpanRecorder(max_spans=2)
    for i in range(4):
        span = rec.start(f"s{i}", float(i))
        rec.finish(span, float(i) + 1)
    assert len(rec.spans) == 2
    assert rec.dropped_spans == 2


def test_clear_resets_everything():
    rec = SpanRecorder()
    rec.finish(rec.start("s", 0.0), 1.0)
    rec.event("e", 0.5)
    rec.clear()
    assert not rec.spans and not rec.events and rec.active() is None
