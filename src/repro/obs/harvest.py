"""Telemetry harvest: capture a child plane, merge it into a parent.

Work that runs under its own :class:`~repro.obs.live.Instrumentation`
— a bench figure in a ``repro.par`` worker, whose
:func:`repro.par.reset_worker_state` installs the null facade, or one
fleet volume on its own virtual clock — would otherwise lose every
metric, span and ring event it produced.  The harvest plane carries
them home the way production telemetry pipelines do (Chrome
``trace_event`` aggregation, Prometheus federation): the child's
state is captured into a picklable :class:`TelemetrySnapshot`, which a
worker returns alongside its result, and the parent merges snapshots
into its own armed instrumentation **strictly in a fixed order**:

- counters sum; gauges keep the last snapshot's reading but remember
  the true peak across snapshots; histograms add bucket-wise (same
  bounds required) so quantiles come from the union of observations;
- spans and ring events land on per-child tracks (``shard0/main``,
  ``vol0000/main`` ...) so Chrome-trace rows stay separated; every
  child shares the parent's virtual-time origin;
- ring drops stay counted: the child's ``obs.events_dropped`` counter
  merges like any counter, and the recorder-level ``dropped_spans`` /
  ``dropped_events`` tallies carry over into the parent's recorder (on
  top of any wraps the merge itself causes in the parent's ring).

The two callers keep the merge deterministic.  The bench suite
(:mod:`repro.bench.suite`) runs every figure under a fresh child in
**both** its serial and ``--workers N`` paths and merges the snapshots
in shard order, so an armed ``--workers N`` bench renders byte-identical
metrics tables, Prometheus text, and Chrome traces to the serial run —
guarded by ``tests/test_obs_determinism.py`` and
``benchmarks/smoke.py``.  The fleet controller runs each volume under its
own child (:func:`child_of`), and the volumes merge at the end of the run
in spec order on ``vol<NNNN>/`` tracks, so 64 volumes' spans never share
one Chrome row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .hooks import Instrumentation
from .metrics import Gauge, Histogram

#: counter incremented on the parent each time a snapshot merges
SNAPSHOTS_MERGED = "obs.harvest.snapshots"


def child_of(obs: Instrumentation) -> Instrumentation:
    """A fresh armed instrumentation with ``obs``'s ring capacities."""
    return Instrumentation(
        max_spans=obs.spans.max_spans,
        max_events=obs.spans.events.maxlen or 0,
    )


@dataclass
class TelemetrySnapshot:
    """Plain-data, picklable capture of one instrumentation's state.

    Metrics are carried in raw form (bucket counts, not percentile
    renderings) so the parent merge reproduces exactly what serial
    accumulation would have: percentiles re-derive from merged buckets.
    """

    #: (name, value) in registry insertion order
    counters: List[Tuple[str, float]] = field(default_factory=list)
    #: (name, value, peak)
    gauges: List[Tuple[str, float, float]] = field(default_factory=list)
    #: (name, bounds, bucket_counts, count, total, max_value)
    histograms: List[
        Tuple[str, Tuple[float, ...], Tuple[int, ...], int, float, float]
    ] = field(default_factory=list)
    #: finished spans: (name, start, end, track, attrs)
    spans: List[Tuple[str, float, float, str, Dict[str, object]]] = (
        field(default_factory=list)
    )
    #: ring segment: (name, time, track, attrs)
    events: List[Tuple[str, float, str, Dict[str, object]]] = (
        field(default_factory=list)
    )
    dropped_spans: int = 0
    dropped_events: int = 0

    # -- capture -------------------------------------------------------

    @classmethod
    def capture(cls, obs: Instrumentation) -> "TelemetrySnapshot":
        """Snapshot ``obs``.

        Only *finished* spans are carried: a shard that leaves spans
        open at capture time loses them, same as the exporters would.
        """
        snapshot = cls()
        for metric in obs.registry.metrics():
            if isinstance(metric, Gauge):
                snapshot.gauges.append((metric.name, metric.value, metric.peak))
            elif isinstance(metric, Histogram):
                snapshot.histograms.append((
                    metric.name, tuple(metric.bounds), tuple(metric.counts),
                    metric.count, metric.total, metric.max_value,
                ))
            else:
                snapshot.counters.append((metric.name, metric.value))
        for span in obs.spans.finished_spans():
            snapshot.spans.append(
                (span.name, span.start, span.end, span.track, dict(span.attrs))
            )
        for event in obs.spans.events:
            snapshot.events.append(
                (event.name, event.time, event.track, dict(event.attrs))
            )
        snapshot.dropped_spans = obs.spans.dropped_spans
        snapshot.dropped_events = obs.spans.dropped_events
        return snapshot

    # -- merge ---------------------------------------------------------

    def merge_into(self, obs: Instrumentation, track_prefix: str = "") -> None:
        """Fold this snapshot into ``obs`` (the parent's armed facade).

        ``track_prefix`` namespaces the shard's span/event tracks so each
        shard renders as its own Chrome-trace rows.  Counter merges
        include the shard's ``obs.events_dropped``, so drops stay counted
        end to end.
        """
        if not obs.enabled:
            return
        registry = obs.registry
        for name, value in self.counters:
            registry.counter(name).inc(value)
        for name, value, peak in self.gauges:
            gauge = registry.gauge(name)
            gauge.set(value)
            if peak > gauge.peak:
                gauge.peak = peak
        for name, bounds, counts, count, total, max_value in self.histograms:
            hist = registry.histogram(name, bounds)
            if hist.bounds != tuple(bounds):
                raise ValueError(
                    f"histogram {name!r}: shard bounds {bounds} do not match "
                    f"parent bounds {hist.bounds}"
                )
            for i, bucket in enumerate(counts):
                hist.counts[i] += bucket
            hist.count += count
            hist.total += total
            if max_value > hist.max_value:
                hist.max_value = max_value
        recorder = obs.spans
        for name, start, end, track, attrs in self.spans:
            recorder.adopt(name, start, end, track=track_prefix + track, attrs=attrs)
        for name, time, track, attrs in self.events:
            recorder.event(name, time, track=track_prefix + track, **attrs)
        recorder.dropped_spans += self.dropped_spans
        recorder.dropped_events += self.dropped_events
        registry.counter(SNAPSHOTS_MERGED).inc()


def shard_track_prefix(index: int) -> str:
    """The reserved track namespace for shard ``index`` of a sharded run."""
    return f"shard{index}/"
