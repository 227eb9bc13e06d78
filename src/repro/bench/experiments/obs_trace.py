"""Observability tour: the Fig. 10 protocol, fully instrumented.

Runs the FragPicker arm of the Figure 10 protocol
(:mod:`.fig10_ycsb_rocksdb`: YCSB-C over the LSM store on an aged
Ext4/Optane) at trace sizes, with no warmup and :mod:`repro.obs`
enabled.  The protocol's phases, each a span of the trace:

- **before** — workload alone on the fragmented database
  (``phase.before``),
- **analysis** — FragPicker's syscall monitor attached
  (``phase.analysis``),
- **defrag** — FragPicker migrating concurrently with the workload
  (``fragpicker.defragment``, one ``fragpicker.migrate`` child per
  range),
- **after** — workload on the defragmented database (``phase.after``).

The point of the exercise is the paper's core mechanism made visible: the
``block.split_fanout`` histogram (device commands per syscall) is windowed
around the *before* and *after* phases, and defragmentation shifts it
toward 1 — the aggregate the paper reads from blktrace.  The result also
carries the complete metrics registry and a Chrome ``trace_event``
document with nested FragPicker phase spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ...constants import MIB
from ...core.report import DefragReport
from ...obs import hooks as obs_hooks
from ...obs.analysis import Attribution, attribute
from ...obs.export import chrome_trace, metrics_table
from ...obs.hooks import Instrumentation
from ...obs.metrics import Histogram
from ...obs.sampler import FragmentationSampler
from ...obs.spans import Span
from ...stats.tables import format_table
from .fig10_ycsb_rocksdb import _build_state, _protocol

#: the aging and workload seed (the bench suite's obs_trace figure reads it)
SEED = 42

#: the spans that time the protocol's phases, in run order
PHASE_SPANS = ("phase.before", "phase.analysis", "fragpicker.defragment", "phase.after")


@dataclass
class ObsTraceResult:
    """Everything the observability plane captured for one run."""

    obs: Instrumentation
    phase_ops: Dict[str, float] = field(default_factory=dict)
    fanout_before: Optional[Histogram] = None
    fanout_after: Optional[Histogram] = None
    defrag: Optional[DefragReport] = None
    sampler: Optional[FragmentationSampler] = None

    def trace(self) -> Dict[str, object]:
        """Chrome trace_event document (load in chrome://tracing/Perfetto),
        with the fragmentation-timeline counter curves and the raw
        ``fragTimeline`` samples when a sampler ran."""
        return chrome_trace(self.obs.spans, self.obs.registry, sampler=self.sampler)

    def attribution(self) -> Attribution:
        """Latency attribution over the whole run (sum-to-total checked)."""
        return attribute(self.obs.registry)

    def phase_spans(self) -> Dict[str, Span]:
        """Each :data:`PHASE_SPANS` span that ran, in run order."""
        spans = {span.name: span for span in self.obs.spans.finished_spans()
                 if span.name in PHASE_SPANS}
        return {name: spans[name] for name in PHASE_SPANS if name in spans}

    def wall_clock(self) -> float:
        """Virtual seconds from the first phase span's start to the last's end."""
        spans = list(self.phase_spans().values())
        return spans[-1].end - spans[0].start if spans else 0.0

    def summary(self) -> Dict[str, object]:
        """The ``repro.obs.trace/v2`` document: phase-span durations, the
        windowed fan-out before and after defragmentation, and the
        whole-run attribution."""
        fanout = {}
        for phase, hist in (("before", self.fanout_before), ("after", self.fanout_after)):
            if hist is not None:
                fanout[phase] = {"count": hist.count, "mean": hist.mean}
        return {
            "schema": "repro.obs.trace/v2",
            "phases_s": {name: span.duration for name, span in self.phase_spans().items()},
            "wall_clock_s": self.wall_clock(),
            "split_fanout": fanout,
            "attribution": self.attribution().to_dict(),
        }

    def report(self) -> str:
        """Every table of the run."""
        phase_rows = [[name, ops] for name, ops in self.phase_ops.items()]
        parts = [format_table(["phase", "ops/s"], phase_rows)]
        span_rows = [[name, span.duration] for name, span in self.phase_spans().items()]
        span_rows.append(["(first start to last end)", self.wall_clock()])
        parts.append(format_table(["phase span", "seconds"], span_rows))
        if self.fanout_before is not None and self.fanout_after is not None:
            # count and mean only: the windowed histogram keeps the
            # run-so-far max, and its p95 interpolates inside a 4-16 bucket
            parts.append(format_table(
                ["split fan-out (cmds/syscall)", "count", "mean"],
                [
                    ["before defrag", self.fanout_before.count, self.fanout_before.mean],
                    ["after defrag", self.fanout_after.count, self.fanout_after.mean],
                ],
            ))
        if self.defrag is not None:
            parts.append(self.defrag.summary())
        parts.append(self.attribution().table())
        if self.sampler is not None and self.sampler.samples_taken:
            contiguity = self.sampler.series["frag.contiguity"]
            parts.append(
                f"frag timeline: {self.sampler.samples_taken} samples, "
                f"contiguity {contiguity.values[0]:.3f} -> {contiguity.last:.3f}"
            )
        parts.append(metrics_table(self.obs.registry))
        return "\n\n".join(parts)


def run(
    smoke: bool = False,
    capacity: int = 384 * MIB,
    record_count: int = 5_000,
    value_size: int = 1024,
    window_ops: int = 1_500,
    hotness: float = 0.5,
    seed: int = SEED,
    device: str = "optane",
) -> ObsTraceResult:
    """Run the instrumented protocol; returns spans + metrics + fan-out."""
    if smoke:
        capacity = 96 * MIB
        record_count = 1_200
        window_ops = 400
    obs = Instrumentation()
    with obs_hooks.use(obs):
        fs, store, workload, now = _build_state(
            capacity, device, 16 * MIB, record_count, value_size, seed
        )
        # fragmentation timeline over the database tables; activity-driven,
        # so it rides the same device batches the phases generate
        sampler = FragmentationSampler(fs, interval=0.02, paths=store.files())
        sampler.attach()
        sampler.sample(now)
        run_fp = _protocol(
            "fragpicker", fs, store, workload, now,
            window_ops=window_ops, warmup_ops=0, hotness=hotness,
        )
        sampler.sample(run_fp.finished_at)
        sampler.detach()
    return ObsTraceResult(
        obs=obs,
        phase_ops={name: phase.ops_per_sec for name, phase in run_fp.phases.items()},
        fanout_before=run_fp.phases["before"].fanout,
        fanout_after=run_fp.phases["after"].fanout,
        defrag=run_fp.report,
        sampler=sampler,
    )
