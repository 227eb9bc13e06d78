"""repro.obs — the cross-layer observability plane.

One subsystem replaces the ad-hoc per-layer counters with a shared
measurement substrate:

- :mod:`repro.obs.metrics` — counters, gauges, fixed-bucket histograms
  (p50/p95/p99) in a process-wide :class:`MetricsRegistry`;
- :mod:`repro.obs.spans` — hierarchical spans over virtual time plus a
  bounded event ring buffer;
- :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (Perfetto
  loadable), metrics JSON, and plain-text tables;
- :mod:`repro.obs.hooks` — the :class:`Instrumentation` facade every
  layer calls, with a null implementation that keeps the hot path at one
  attribute lookup when observability is off (the default);
- :mod:`repro.obs.analysis` — the explanation layer: latency attribution
  (wall-clock per-syscall latency partitioned into fs CPU / kernel queue
  and CPU / split cost / device queue, service, penalty, with a
  sum-to-total invariant) and span-tree summaries;
- :mod:`repro.obs.sampler` — fragmentation timelines: extents-per-file,
  free-space fragmentation, and contiguity sampled over virtual time,
  exported as counter curves in the Chrome trace;
- :mod:`repro.obs.provenance` — causal I/O lineage: per-syscall
  provenance ids threaded fs → block → device, reconstructed into
  syscall→request→command trees;
- :mod:`repro.obs.critical_path` — the critical path of a whole run
  (sum-to-total checked against wall-clock), collapsed-stack flamegraph
  export, and Chrome flow events linking syscalls to their tail
  commands;
- :mod:`repro.obs.slo` — the judgment layer: declarative SLOs over
  fixed-width virtual-time windows, evaluated into error-budget
  consumption and fast/slow burn rates, with deterministic
  ``slo.breach``/``slo.burn`` events and a fingerprinted
  ``repro.slo/v1`` document;
- :mod:`repro.obs.dashboard` — the byte-deterministic plain-text fleet
  health dashboard ``repro fleet --watch`` renders.
"""

from .hooks import (  # noqa: F401
    Instrumentation,
    NullInstrumentation,
    current,
    disable,
    enable,
    install,
    use,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry  # noqa: F401
from .spans import Span, SpanRecorder  # noqa: F401
from .export import (  # noqa: F401
    chrome_trace,
    metrics_json,
    metrics_table,
    prometheus_text,
    write_chrome_trace,
)
from .analysis import (  # noqa: F401
    Attribution,
    attribute,
    delta_metrics,
    histogram_summary,
    span_summary,
    span_table,
)
from .sampler import FragmentationSampler  # noqa: F401
from .slo import SloPlane, SloSpec  # noqa: F401
from .provenance import (  # noqa: F401
    ProvenanceForest,
    ProvenanceRecorder,
    SyscallTree,
    build_forest,
)
from .critical_path import (  # noqa: F401
    CriticalPath,
    critical_path,
    flamegraph,
    flow_events,
    write_flamegraph,
)
