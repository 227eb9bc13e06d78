"""The telemetry harvest: capture and merge.

TelemetrySnapshot must carry metrics in raw (mergeable) form, land
child spans/events on namespaced tracks and keep drop tallies.  The
callers' end-to-end parity (armed bench serial vs ``--workers 2``,
armed fleet run to run) is in test_obs_determinism.py.
"""

from __future__ import annotations

import pytest

from repro.obs import harvest
from repro.obs import hooks as obs_hooks
from repro.obs.harvest import SNAPSHOTS_MERGED, TelemetrySnapshot
from repro.obs.hooks import Instrumentation


# ----------------------------------------------------------------------
# a child's worth of telemetry
# ----------------------------------------------------------------------

def _emit(x):
    """Metrics, a span, and a ring event."""
    obs = obs_hooks.current()
    obs.registry.counter("t.count").inc(x + 1)
    gauge = obs.registry.gauge("t.depth")
    gauge.set(float(x + 3))
    gauge.set(float(x))
    obs.registry.histogram("t.lat", bounds=(0.1, 1.0)).observe(0.05 * (x + 1))
    obs.spans.adopt("t.work", 0.0, float(x + 1), attrs={"shard": x})
    obs.spans.event("t.tick", float(x), tag=x)
    return x * x


# ----------------------------------------------------------------------
# snapshot capture
# ----------------------------------------------------------------------

def test_capture_carries_metrics_spans_events_in_raw_form():
    obs = Instrumentation()
    with obs_hooks.use(obs):
        _emit(2)
    snapshot = harvest.TelemetrySnapshot.capture(obs)
    assert ("t.count", 3.0) in snapshot.counters
    assert ("t.depth", 2.0, 5.0) in snapshot.gauges
    (name, bounds, counts, count, total, max_value) = next(
        h for h in snapshot.histograms if h[0] == "t.lat"
    )
    assert bounds == (0.1, 1.0)
    assert count == 1 and counts[1] == 1  # 0.15 lands in the second bucket
    assert snapshot.spans == [("t.work", 0.0, 3.0, "main", {"shard": 2})]
    assert snapshot.events == [("t.tick", 2.0, "main", {"tag": 2})]


def test_child_of_mirrors_parent_configuration():
    parent = Instrumentation(max_spans=7, max_events=16)
    child = harvest.child_of(parent)
    assert child is not parent and child.enabled
    assert child.spans.max_spans == 7
    assert child.spans.events.maxlen == 16


# ----------------------------------------------------------------------
# snapshot merge
# ----------------------------------------------------------------------

def test_merge_sums_counters_and_keeps_gauge_peak():
    parent = Instrumentation()
    parent.registry.counter("t.count").inc(5)
    gauge = parent.registry.gauge("t.depth")
    gauge.set(3.0)

    worker = Instrumentation()
    with obs_hooks.use(worker):
        _emit(1)  # counter +2, gauge value 1 / peak 4
    harvest.TelemetrySnapshot.capture(worker).merge_into(parent, track_prefix="shard0/")

    metrics = parent.registry.to_dict()
    assert metrics["t.count"]["value"] == 7.0
    assert metrics["t.depth"]["value"] == 1.0  # last shard's reading
    assert metrics["t.depth"]["peak"] == 4.0  # true cross-shard peak
    assert metrics[SNAPSHOTS_MERGED]["value"] == 1
    # spans/events landed on the namespaced track, drops carried (none)
    assert [s.track for s in parent.spans.finished_spans()] == ["shard0/main"]
    assert [e.track for e in parent.spans.events] == ["shard0/main"]


def test_merge_adds_histograms_bucket_wise_and_rejects_bounds_mismatch():
    parent = Instrumentation()
    parent.registry.histogram("t.lat", bounds=(0.1, 1.0)).observe(0.5)
    worker = Instrumentation()
    worker.registry.histogram("t.lat", bounds=(0.1, 1.0)).observe(0.05)
    worker.registry.histogram("t.lat", bounds=(0.1, 1.0)).observe(2.0)
    harvest.TelemetrySnapshot.capture(worker).merge_into(parent)
    hist = parent.registry.histogram("t.lat")
    assert hist.count == 3
    assert hist.max_value == 2.0
    assert hist.total == pytest.approx(2.55)

    mismatched = Instrumentation()
    mismatched.registry.histogram("t.lat", bounds=(0.5,)).observe(0.2)
    with pytest.raises(ValueError, match="bounds"):
        harvest.TelemetrySnapshot.capture(mismatched).merge_into(parent)


def test_merge_applies_track_prefix_and_drop_tallies():
    parent = Instrumentation()
    snapshot = TelemetrySnapshot(
        spans=[("t.work", 1.0, 2.0, "main", {})],
        events=[("t.tick", 1.5, "main", {})],
        dropped_spans=3,
        dropped_events=8,
    )
    snapshot.merge_into(parent, track_prefix="shard4/")
    (span,) = parent.spans.finished_spans()
    assert (span.start, span.end, span.track) == (1.0, 2.0, "shard4/main")
    (event,) = parent.spans.events
    assert (event.time, event.track) == (1.5, "shard4/main")
    assert parent.spans.dropped_spans == 3
    assert parent.spans.dropped_events == 8


def test_merge_into_disabled_obs_is_a_no_op():
    null = obs_hooks.NULL
    snapshot = TelemetrySnapshot(counters=[("t.count", 1.0)])
    snapshot.merge_into(null)  # must not raise, must not record
