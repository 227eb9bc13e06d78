"""Exporters: Chrome ``trace_event`` JSON, metrics JSON/tables, Prometheus.

The Chrome trace format (loadable in ``chrome://tracing`` or Perfetto's
"Open trace file") is the object form::

    {"traceEvents": [...], "displayTimeUnit": "ms", "metrics": {...}}

Spans become complete ("ph": "X") events, ring-buffer events become
instants ("ph": "i"), and each span track gets a thread-name metadata
record so actors show up as separate rows.  Virtual seconds map to trace
microseconds.  The full metrics registry rides along under the
non-standard top-level ``metrics`` key (Chrome ignores unknown keys).
"""

from __future__ import annotations

import fnmatch
import json
import re
from typing import Dict, List, Optional

from ..stats.tables import format_table
from .metrics import MetricsRegistry
from .spans import SpanRecorder

#: the single simulated "process" in exported traces
TRACE_PID = 1


def counter_events(series_by_name: Dict[str, object]) -> List[Dict[str, object]]:
    """Chrome counter ("ph": "C") events from named Series-like curves.

    Each series renders as its own counter row in chrome://tracing /
    Perfetto, so e.g. defrag progress shows as a falling
    ``frag.extents_per_file`` curve alongside the span tracks.
    """
    events: List[Dict[str, object]] = []
    for name, series in series_by_name.items():
        for time, value in zip(series.times, series.values):
            events.append({
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "C",
                "ts": time * 1e6,
                "pid": TRACE_PID,
                "args": {"value": value},
            })
    return events


def chrome_trace(
    recorder: SpanRecorder,
    registry: Optional[MetricsRegistry] = None,
    sampler=None,
) -> Dict[str, object]:
    """Build a Chrome trace_event document from recorded spans/events.

    ``sampler`` (anything with ``.series`` and ``.to_dict()``, e.g. a
    :class:`~repro.obs.sampler.FragmentationSampler`) adds counter curves
    to the event stream plus a raw ``fragTimeline`` top-level key.
    """
    events: List[Dict[str, object]] = []
    tracks = recorder.tracks() or ["main"]
    tids = {track: tid for tid, track in enumerate(tracks, start=1)}
    for track, tid in tids.items():
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": TRACE_PID,
            "tid": tid,
            "args": {"name": track},
        })
    for span in recorder.finished_spans():
        events.append({
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ph": "X",
            "ts": span.start * 1e6,
            "dur": span.duration * 1e6,
            "pid": TRACE_PID,
            "tid": tids.get(span.track, 0),
            "args": dict(span.attrs),
        })
    for event in recorder.events:
        events.append({
            "name": event.name,
            "cat": event.name.split(".", 1)[0],
            "ph": "i",
            "ts": event.time * 1e6,
            "s": "t",
            "pid": TRACE_PID,
            "tid": tids.get(event.track, 0),
            "args": dict(event.attrs),
        })
    if sampler is not None:
        events.extend(counter_events(sampler.series))
    document: Dict[str, object] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if recorder.dropped_spans:
        document["droppedSpans"] = recorder.dropped_spans
    if recorder.dropped_events:
        document["droppedEvents"] = recorder.dropped_events
    if registry is not None:
        document["metrics"] = registry.to_dict()
    if sampler is not None:
        document["fragTimeline"] = sampler.to_dict()
    return document


def write_chrome_trace(
    path: str,
    recorder: SpanRecorder,
    registry: Optional[MetricsRegistry] = None,
    sampler=None,
) -> None:
    """Write the trace document to ``path`` (open it in Perfetto)."""
    with open(path, "w") as fh:
        json.dump(chrome_trace(recorder, registry, sampler=sampler), fh)


def metrics_json(registry: MetricsRegistry) -> str:
    return json.dumps(registry.to_dict(), indent=2, sort_keys=True)


def metrics_table(registry: MetricsRegistry) -> str:
    """Plain-text dump of every metric, histograms with quantiles."""
    sections: List[str] = []
    counters = [m for m in registry.metrics() if m.to_dict()["kind"] == "counter"]
    gauges = [m for m in registry.metrics() if m.to_dict()["kind"] == "gauge"]
    histograms = registry.histograms()
    if counters:
        rows = [[c.name, c.value] for c in sorted(counters, key=lambda m: m.name)]
        sections.append(format_table(["counter", "value"], rows))
    if gauges:
        rows = [[g.name, g.value, g.peak] for g in sorted(gauges, key=lambda m: m.name)]
        sections.append(format_table(["gauge", "value", "peak"], rows))
    if histograms:
        rows = []
        for hist in sorted(histograms, key=lambda h: h.name):
            stats = hist.percentiles()
            rows.append([
                hist.name, hist.count, stats["p50"], stats["p95"], stats["p99"],
                stats["mean"], stats["max"],
            ])
        sections.append(format_table(
            ["histogram", "count", "p50", "p95", "p99", "mean", "max"], rows
        ))
    return "\n\n".join(sections)


_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")

#: central metric documentation: exact name (or '*' glob pattern) ->
#: the ``# HELP`` line Prometheus exports carry.  One table instead of
#: per-call-site strings, so the same metric renders the same HELP
#: everywhere it is exported.  Every metric the repo emits must resolve
#: here (``tests/test_obs_export.py`` audits a representative armed run).
METRIC_HELP: Dict[str, str] = {
    "attrib.device_penalty_s": "device seek/fragmentation penalty time",
    "attrib.device_queue_s": "time requests queued behind a busy device",
    "attrib.device_service_s": "raw device service time",
    "attrib.fs_cpu_s": "filesystem-layer CPU time",
    "attrib.kernel_cpu_base_s": "block-layer per-request base CPU time",
    "attrib.kernel_cpu_split_s": "block-layer request-splitting CPU time",
    "attrib.kernel_queue_s": "block-layer queueing delay",
    "block.kernel_time_s": "block-layer time per request (CPU + queue)",
    "block.queue_backlog_s": "device backlog seen at block-layer dispatch",
    "block.requests": "block requests submitted",
    "block.split_fanout": "device commands produced per block request",
    "frag.extents_per_file": "mean extent count over tracked files",
    "frag.max_extents": "extent count of the worst tracked file",
    "frag.contiguity": "mean per-file 1/extents (1.0 = fully contiguous)",
    "frag.free_runs": "free-space runs (free-space fragmentation)",
    "frag.largest_free_mb": "largest contiguous free run in MiB",
    "fleet.volumes_above": "volumes above the defrag trigger",
    "fleet.jobs_running": "defrag jobs currently running",
    "fleet.jobs_waiting": "triggered volumes waiting for admission",
    "fleet.jobs_admitted": "defrag jobs admitted over the run",
    "fleet.jobs_completed": "defrag jobs completed over the run",
    "fleet.jobs_failed": "defrag jobs failed over the run",
    "fleet.jobs_deferred_ticks": "volume-ticks spent queued behind the cap",
    "fleet.migrated_bytes": "migration payload bytes moved",
    "fleet.fg_ops": "foreground operations completed",
    "fleet.fg_read_latency_s": "foreground read latency in seconds",
    "slo.breaches": "SLO windows whose bad fraction exceeded the budget",
    "slo.alerts": "multi-window burn-rate alerts fired",
    "par.plans": "parallel plans executed (sharded fan-outs)",
    "par.shards": "work shards executed (serially or in worker processes)",
    "obs.events_dropped": "ring-buffer events dropped (oldest-first wrap)",
    "obs.harvest.snapshots": "worker telemetry snapshots merged into this plane",
    "faults.injected.total": "faults injected across all sites and kinds",
    "recovery.bytes_restored": "bytes restored by journal crash recovery",
    "recovery.entries_replayed": "journal entries replayed during recovery",
    # '*' glob patterns (exact names above win over these)
    "fs.syscall.*": "filesystem syscalls issued, by operation",
    "fs.syscall_latency.*": "per-syscall latency in virtual seconds",
    "device.*.busy_until": "virtual time this device model is busy until",
    "device.*.batch_commands": "commands per dispatched device batch",
    "device.*.command_latency.*": "per-command device latency, by operation",
    "sim.actor_step.*": "virtual time consumed per step of one actor",
    "faults.injected.*": "faults injected at one site, by kind",
    "*.migration_retries": "migration ranges retried by one defrag tool",
    "*.migrations_failed": "migration ranges abandoned by one defrag tool",
    "slo.*.burn_fast": "fast-window burn rate of one SLO",
    "slo.*.burn_slow": "slow-window burn rate of one SLO",
    "slo.*.budget_remaining": "unspent error-budget fraction of one SLO",
    "slo.*.compliance": "good-sample fraction of one SLO",
    "slo.*.breaches": "budget-exceeding windows of one SLO",
    "slo.*.alerts": "burn-rate alerts of one SLO",
}


def metric_help(name: str) -> Optional[str]:
    """The HELP text for a metric: exact match, then ``*`` glob patterns.

    Patterns use :func:`fnmatch.fnmatchcase`, so multi-star shapes like
    ``device.*.command_latency.*`` resolve; the first matching pattern
    in table order wins.
    """
    if name in METRIC_HELP:
        return METRIC_HELP[name]
    for pattern, text in METRIC_HELP.items():
        if "*" in pattern and fnmatch.fnmatchcase(name, pattern):
            return text
    return None


def _prom_name(name: str) -> str:
    """Metric name in Prometheus' charset (dots and dashes become '_')."""
    sanitized = _PROM_INVALID.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _prom_value(value: float) -> str:
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def prometheus_text(registry: MetricsRegistry) -> str:
    """Prometheus text-format (0.0.4) rendering of the whole registry.

    Counters and gauges export their value directly (gauges additionally
    export their remembered peak as ``<name>_peak``); histograms export
    the standard ``_bucket`` (cumulative, with ``le`` labels and the
    ``+Inf`` catch-all), ``_sum`` and ``_count`` series.  Metrics listed
    in :data:`METRIC_HELP` get a ``# HELP`` line ahead of ``# TYPE``.
    Output is name-sorted, so two runs producing the same metrics render
    byte-identically regardless of metric creation order.
    """
    lines: List[str] = []

    def describe(name: str, source: str) -> None:
        text = metric_help(source)
        if text is not None:
            lines.append(f"# HELP {name} {text}")

    for metric in sorted(registry.metrics(), key=lambda m: m.name):
        entry = metric.to_dict()
        name = _prom_name(metric.name)
        kind = entry["kind"]
        if kind == "counter":
            describe(name, metric.name)
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {_prom_value(entry['value'])}")
        elif kind == "gauge":
            describe(name, metric.name)
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_prom_value(entry['value'])}")
            help_text = metric_help(metric.name)
            if help_text is not None:
                lines.append(f"# HELP {name}_peak peak of: {help_text}")
            lines.append(f"# TYPE {name}_peak gauge")
            lines.append(f"{name}_peak {_prom_value(entry['peak'])}")
        else:
            describe(name, metric.name)
            lines.append(f"# TYPE {name} histogram")
            cumulative = 0
            for bound, count in zip(entry["bounds"], entry["bucket_counts"]):
                cumulative += count
                lines.append(
                    f'{name}_bucket{{le="{_prom_value(bound)}"}} {cumulative}'
                )
            lines.append(f'{name}_bucket{{le="+Inf"}} {entry["count"]}')
            lines.append(f"{name}_sum {_prom_value(entry['sum'])}")
            lines.append(f"{name}_count {entry['count']}")
    return "\n".join(lines) + ("\n" if lines else "")

