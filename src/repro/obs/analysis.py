"""Latency attribution and histogram summaries over captured telemetry.

PR 1's ``repro.obs`` records *what happened*; this module explains *why a
number came out the way it did*, the way the paper's Section 3 analysis
decomposes fragmentation cost by hand.  The core object is an
:class:`Attribution`: the wall-clock latency of every instrumented syscall
in a measurement window, partitioned into named components that each layer
measured at source:

===================  ====================================================
component            meaning (virtual seconds, summed over the window)
===================  ====================================================
``fs_cpu``           host CPU above the block layer: syscall overhead,
                     page-cache memcpy, attached-probe cost
``kernel_queue``     wait for the shared kernel-CPU timeline (another
                     submitter is building requests)
``kernel_cpu``       baseline request-build CPU — one request per syscall
``split_cost``       the *extra* kernel CPU caused by request splitting;
                     ~0 once files are contiguous (the paper's mechanism)
``device_queue``     device-side wait behind earlier traffic
``device_service``   device wall-clock service after pickup, minus
                     penalties
``device_penalty``   seek / mapping-miss penalties charged purely for
                     discontiguity (HDD, MicroSD)
===================  ====================================================

Because every component is an exact slice of the same timeline the
``fs.syscall_latency.*`` histograms measure, their sum must equal the
measured total; :meth:`Attribution.check` enforces that invariant (a
failing check means a syscall path stopped reporting a slice — a wiring
regression, not a perf change).

``attribute`` accepts any of the metric shapes the plane produces: a live
:class:`~repro.obs.metrics.MetricsRegistry`, a ``registry.snapshot()``
dict of metric objects, or the JSON form stored in
``ObsWindow.metrics`` / ``BENCH_*.json`` files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..stats.tables import format_table
from .metrics import MetricsRegistry

#: (component key, backing counter, human description) — display order.
COMPONENTS: Tuple[Tuple[str, str, str], ...] = (
    ("fs_cpu", "attrib.fs_cpu_s", "host CPU above block layer"),
    ("kernel_queue", "attrib.kernel_queue_s", "shared kernel-CPU wait"),
    ("kernel_cpu", "attrib.kernel_cpu_base_s", "request-build CPU (baseline)"),
    ("split_cost", "attrib.kernel_cpu_split_s", "extra CPU from request splitting"),
    ("device_queue", "attrib.device_queue_s", "device wait behind earlier traffic"),
    ("device_service", "attrib.device_service_s", "device service (media + link)"),
    ("device_penalty", "attrib.device_penalty_s", "seek / mapping-miss penalty"),
)

#: prefix of the histograms whose summed totals define the measured total
LATENCY_PREFIX = "fs.syscall_latency."


def _metric_view(metrics) -> Mapping[str, Mapping[str, object]]:
    """Normalize registry / snapshot / JSON-dict input to name -> dict."""
    if isinstance(metrics, MetricsRegistry):
        return metrics.to_dict()
    view: Dict[str, Mapping[str, object]] = {}
    for name, metric in metrics.items():
        view[name] = metric if isinstance(metric, dict) else metric.to_dict()
    return view


@dataclass
class Attribution:
    """One window's latency decomposition plus its consistency check."""

    components: Dict[str, float]
    total: float                       # Σ fs.syscall_latency.* sums
    syscalls: int = 0                  # samples behind the total
    descriptions: Dict[str, str] = field(default_factory=dict)

    @property
    def attributed(self) -> float:
        return sum(self.components.values())

    @property
    def residual(self) -> float:
        """Measured total minus attributed components (≈0 when wired)."""
        return self.total - self.attributed

    def share(self, component: str) -> float:
        return self.components.get(component, 0.0) / self.total if self.total else 0.0

    def check(self, tolerance: float = 0.01) -> bool:
        """Components sum to the measured total within ``tolerance``."""
        if self.total <= 0.0:
            return self.attributed <= 1e-12
        return abs(self.residual) <= tolerance * self.total

    def table(self) -> str:
        rows: List[List[object]] = []
        for key, _, description in COMPONENTS:
            seconds = self.components.get(key, 0.0)
            rows.append([key, seconds, f"{100.0 * self.share(key):.1f}%", description])
        rows.append(["(total measured)", self.total, "100.0%",
                     f"{self.syscalls} syscalls"])
        rows.append(["(residual)", self.residual,
                     f"{100.0 * (self.residual / self.total if self.total else 0.0):.2f}%",
                     "sum-to-total slack"])
        return format_table(["component", "seconds", "share", "what it is"], rows)

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": "repro.obs.attribution/v1",
            "total_s": self.total,
            "syscalls": self.syscalls,
            "components_s": dict(self.components),
            "residual_s": self.residual,
            "ok": self.check(),
        }


def attribute(metrics) -> Attribution:
    """Decompose the window's total syscall latency into components.

    ``metrics`` may be a :class:`MetricsRegistry`, a ``snapshot()`` dict of
    metric objects, or the JSON registry dump (``ObsWindow.metrics``).
    For a windowed attribution, delta the registry against a snapshot first
    (see :func:`delta_metrics`).
    """
    view = _metric_view(metrics)
    components: Dict[str, float] = {}
    descriptions: Dict[str, str] = {}
    for key, counter_name, description in COMPONENTS:
        entry = view.get(counter_name)
        components[key] = float(entry["value"]) if entry else 0.0
        descriptions[key] = description
    total = 0.0
    syscalls = 0
    for name, entry in view.items():
        if name.startswith(LATENCY_PREFIX):
            total += float(entry.get("sum", 0.0))
            syscalls += int(entry.get("count", 0))
    return Attribution(components=components, total=total, syscalls=syscalls,
                       descriptions=descriptions)


def delta_metrics(
    registry: MetricsRegistry, since: Optional[Mapping[str, object]]
) -> Dict[str, Dict[str, object]]:
    """JSON-ready registry dump, windowed against an earlier ``snapshot()``.

    Metrics born after the snapshot pass through whole; gauges keep their
    later reading (they are not cumulative).
    """
    if not since:
        return registry.to_dict()
    out: Dict[str, Dict[str, object]] = {}
    for metric in registry.metrics():
        earlier = since.get(metric.name)
        windowed = metric.delta(earlier) if earlier is not None else metric
        out[metric.name] = windowed.to_dict()
    return out


def histogram_summary(metrics, name: str) -> Dict[str, float]:
    """Compact {count, mean, p95, max} view of one histogram (any shape)."""
    view = _metric_view(metrics)
    entry = view.get(name)
    if not entry or entry.get("kind") != "histogram":
        return {"count": 0, "mean": 0.0, "p95": 0.0, "max": 0.0}
    return {
        "count": int(entry.get("count", 0)),
        "mean": float(entry.get("mean", 0.0)),
        "p95": float(entry.get("p95", 0.0)),
        "max": float(entry.get("max", 0.0)),
    }
