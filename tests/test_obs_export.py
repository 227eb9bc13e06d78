"""Chrome-trace and table exporter tests."""

import json

from repro.obs.export import (
    chrome_trace,
    metrics_json,
    metrics_table,
    prometheus_text,
    write_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder


def _sample_recorder():
    rec = SpanRecorder()
    outer = rec.start("fragpicker.defragment", 0.0, track="bg", files=2)
    inner = rec.start("fragpicker.migrate", 0.5, track="bg", file="/a")
    rec.finish(inner, 1.0)
    rec.finish(outer, 2.0)
    rec.event("fragpicker.skip_contiguous", 1.5, track="bg", file="/b")
    return rec


def test_chrome_trace_schema():
    rec = _sample_recorder()
    reg = MetricsRegistry()
    reg.histogram("device.d.command_latency.read").observe(1e-5)
    doc = chrome_trace(rec, reg)
    assert isinstance(doc["traceEvents"], list)
    assert doc["displayTimeUnit"] == "ms"
    phases = {event["ph"] for event in doc["traceEvents"]}
    assert {"M", "X", "i"} <= phases
    for event in doc["traceEvents"]:
        assert {"name", "ph", "pid", "tid"} <= set(event)
        if event["ph"] == "X":
            assert event["ts"] >= 0 and event["dur"] >= 0
        if event["ph"] == "i":
            assert event["s"] == "t"
    # metrics ride along under the extra top-level key
    assert doc["metrics"]["device.d.command_latency.read"]["count"] == 1
    json.dumps(doc)  # must be JSON-serializable


def test_chrome_trace_microsecond_conversion_and_args():
    doc = chrome_trace(_sample_recorder())
    migrate = next(e for e in doc["traceEvents"] if e["name"] == "fragpicker.migrate")
    assert migrate["ts"] == 0.5e6
    assert migrate["dur"] == 0.5e6
    assert migrate["args"] == {"file": "/a"}


def test_chrome_trace_tracks_get_thread_names():
    doc = chrome_trace(_sample_recorder())
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    assert {"bg"} == {e["args"]["name"] for e in meta}
    bg_tid = meta[0]["tid"]
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert all(e["tid"] == bg_tid for e in spans)


def test_write_chrome_trace_roundtrip(tmp_path):
    path = tmp_path / "trace.json"
    write_chrome_trace(str(path), _sample_recorder(), MetricsRegistry())
    doc = json.loads(path.read_text())
    assert any(e["name"] == "fragpicker.defragment" for e in doc["traceEvents"])


def test_metrics_json_and_table():
    reg = MetricsRegistry()
    reg.counter("fs.syscall.read").inc(3)
    reg.gauge("block.queue_backlog_s").set(0.5)
    reg.histogram("fs.syscall_latency.read").observe(1e-4)
    parsed = json.loads(metrics_json(reg))
    assert parsed["fs.syscall.read"]["value"] == 3
    table = metrics_table(reg)
    assert "fs.syscall.read" in table
    assert "p99" in table and "block.queue_backlog_s" in table


def _one_order(names_first):
    """Registry with the same metrics created in a given order."""
    reg = MetricsRegistry()
    for name in names_first:
        reg.counter(f"c.{name}").inc(1)
        reg.gauge(f"g.{name}").set(2.0)
        reg.histogram(f"h.{name}").observe(1e-4)
    return reg

def test_renderings_are_deterministic_across_creation_order():
    """Tables/JSON/Prometheus text must not depend on which code path
    created a metric first."""
    a = _one_order(["zeta", "alpha", "mid"])
    b = _one_order(["mid", "zeta", "alpha"])
    assert metrics_json(a) == metrics_json(b)
    assert metrics_table(a) == metrics_table(b)
    assert prometheus_text(a) == prometheus_text(b)
    # and the order is actually name-sorted, not accidental
    lines = [l for l in metrics_table(a).splitlines() if l.startswith("c.")]
    assert lines == sorted(lines)


def test_prometheus_text_counter_gauge_histogram():
    reg = MetricsRegistry()
    reg.counter("fs.syscall.read").inc(3)
    reg.gauge("block.queue_backlog_s").set(0.5)
    hist = reg.histogram("lat", bounds=(0.001, 0.01, 0.1))
    hist.observe(0.0005)
    hist.observe(0.005)
    hist.observe(5.0)  # overflows every bound
    text = prometheus_text(reg)
    lines = text.splitlines()
    assert text.endswith("\n")
    # dots sanitized, TYPE lines present
    assert "# TYPE fs_syscall_read counter" in lines
    assert "fs_syscall_read 3" in lines
    assert "# TYPE block_queue_backlog_s gauge" in lines
    assert "block_queue_backlog_s 0.5" in lines
    assert "block_queue_backlog_s_peak 0.5" in lines
    # histogram: cumulative buckets, +Inf catch-all, sum and count
    assert 'lat_bucket{le="0.001"} 1' in lines
    assert 'lat_bucket{le="0.01"} 2' in lines
    assert 'lat_bucket{le="0.1"} 2' in lines
    assert 'lat_bucket{le="+Inf"} 3' in lines
    assert "lat_count 3" in lines
    sum_line = next(l for l in lines if l.startswith("lat_sum "))
    assert float(sum_line.split()[1]) == 5.0055


def test_prometheus_text_empty_registry_is_empty_string():
    assert prometheus_text(MetricsRegistry()) == ""


def test_prometheus_name_sanitization():
    reg = MetricsRegistry()
    reg.counter("device.flash-0.cmds").inc(1)
    text = prometheus_text(reg)
    assert "device_flash_0_cmds 1" in text.splitlines()


def test_prometheus_help_lines_from_central_table():
    from repro.obs.export import METRIC_HELP, metric_help

    reg = MetricsRegistry()
    reg.counter("fleet.fg_ops").inc(5)
    reg.gauge("fleet.jobs_running").set(2)
    reg.histogram("fleet.fg_read_latency_s").observe(0.001)
    text = prometheus_text(reg)
    lines = text.splitlines()
    assert f"# HELP fleet_fg_ops {METRIC_HELP['fleet.fg_ops']}" in lines
    assert (f"# HELP fleet_jobs_running "
            f"{METRIC_HELP['fleet.jobs_running']}") in lines
    # gauges document their _peak companion too
    assert any(l.startswith("# HELP fleet_jobs_running_peak peak of:")
               for l in lines)
    assert (f"# HELP fleet_fg_read_latency_s "
            f"{METRIC_HELP['fleet.fg_read_latency_s']}") in lines
    # HELP precedes TYPE for the same metric (text-format convention)
    help_idx = lines.index(f"# HELP fleet_fg_ops {METRIC_HELP['fleet.fg_ops']}")
    assert lines[help_idx + 1] == "# TYPE fleet_fg_ops counter"
    # undocumented metrics simply carry no HELP line
    reg2 = MetricsRegistry()
    reg2.counter("totally.unknown").inc(1)
    assert "# HELP" not in prometheus_text(reg2)
    # pattern rules cover dynamic families
    assert metric_help("fs.syscall.read") == METRIC_HELP["fs.syscall.*"]
    assert metric_help("slo.lat.burn_fast") == METRIC_HELP["slo.*.burn_fast"]
    assert metric_help("slo.breaches") == METRIC_HELP["slo.breaches"]
    assert metric_help("nope") is None


def test_prometheus_text_format_0_0_4_compliance():
    import re as _re

    reg = MetricsRegistry()
    reg.counter("fs.syscall.read").inc(3)
    reg.gauge("fleet.jobs_running").set(2)
    hist = reg.histogram("fleet.fg_read_latency_s", bounds=(0.001, 0.01))
    hist.observe(0.0005)
    hist.observe(5.0)
    text = prometheus_text(reg)
    assert text.endswith("\n")
    name_re = _re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
    sample_re = _re.compile(
        r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? -?[0-9+.eE\-]+$'
    )
    seen_types = {}
    for line in text.splitlines():
        if line.startswith("# HELP "):
            rest = line[len("# HELP "):]
            name = rest.split(" ", 1)[0]
            assert name_re.fullmatch(name)
        elif line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            assert name_re.fullmatch(name)
            assert kind in ("counter", "gauge", "histogram")
            assert name not in seen_types  # one TYPE line per metric
            seen_types[name] = kind
        else:
            assert sample_re.fullmatch(line), line
    # histogram series complete: buckets cumulative, +Inf, _sum, _count
    lines = text.splitlines()
    buckets = [l for l in lines if "_bucket{" in l]
    counts = [int(l.rsplit(" ", 1)[1]) for l in buckets]
    assert counts == sorted(counts)
    assert any('le="+Inf"' in l for l in buckets)
    assert any(l.startswith("fleet_fg_read_latency_s_sum ") for l in lines)
    assert any(l.startswith("fleet_fg_read_latency_s_count ") for l in lines)


def test_prometheus_help_keeps_byte_determinism():
    def build(order):
        reg = MetricsRegistry()
        for name in order:
            reg.counter(name).inc(1)
        return prometheus_text(reg)

    assert (build(["fleet.fg_ops", "slo.alerts", "fs.syscall.read"])
            == build(["fs.syscall.read", "fleet.fg_ops", "slo.alerts"]))


def test_every_metric_from_a_representative_armed_run_has_help():
    """The METRIC_HELP audit: a fully-armed fleet run (faults and SLO —
    the widest metric surface one verb produces) must not
    emit a single metric the central HELP table cannot describe, and the
    Prometheus rendering must carry a # HELP line for every # TYPE."""
    from repro.fleet.controller import run_fleet
    from repro.fleet.slo import FleetSlo
    from repro.fleet.spec import FleetConfig
    from repro.obs import hooks
    from repro.obs.export import metric_help
    from repro.obs.hooks import Instrumentation

    obs = Instrumentation()
    config = FleetConfig.smoke(volumes=4, faults=True)
    with hooks.use(obs):
        run_fleet(config, slo=FleetSlo(config))
    names = set(obs.registry.to_dict())
    assert len(names) > 40  # the run exercised a wide surface
    missing = sorted(name for name in names if metric_help(name) is None)
    assert missing == []

    lines = prometheus_text(obs.registry).splitlines()
    documented = {l.split()[2] for l in lines if l.startswith("# HELP")}
    typed = {l.split()[2] for l in lines if l.startswith("# TYPE")}
    assert typed == documented

    # glob patterns resolve via fnmatch: multi-star families included
    assert metric_help("device.optane.command_latency.read") is not None
    assert metric_help("attrib.fs_cpu_s") is not None
    assert metric_help("fragpicker.migration_retries") is not None
    assert metric_help("e4defrag.migrations_failed") is not None
    assert metric_help("sim.actor_step.fg") is not None
    assert metric_help("faults.injected.device_io.transient") is not None
    assert metric_help("obs.harvest.snapshots") is not None
    assert metric_help("obs.events_dropped") is not None
