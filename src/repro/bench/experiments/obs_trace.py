"""Observability tour: the Fig. 10 protocol, fully instrumented.

Runs the FragPicker arm of the Figure 10 protocol
(:mod:`.fig10_ycsb_rocksdb`: YCSB-C over the LSM store on an aged
Ext4/Optane) at trace sizes, with no warmup and :mod:`repro.obs`
enabled.  The protocol's phases, each workload window in a
``phase.<name>`` span:

- **before** — workload alone on the fragmented database,
- **analysis** — FragPicker's syscall monitor attached,
- **defrag** — FragPicker migrating concurrently with the workload,
- **after** — workload on the defragmented database.

The point of the exercise is the paper's core mechanism made visible: the
``block.split_fanout`` histogram (device commands per syscall) is windowed
around the *before* and *after* phases, and defragmentation shifts it
toward 1.  The result also carries the complete metrics registry and a
Chrome ``trace_event`` document with nested FragPicker phase spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ...constants import MIB
from ...core.report import DefragReport
from ...obs import hooks as obs_hooks
from ...obs.analysis import attribute
from ...obs.critical_path import (
    CriticalPath,
    critical_path,
    flamegraph,
    flow_events,
)
from ...obs.export import chrome_trace, metrics_table
from ...obs.hooks import Instrumentation
from ...obs.metrics import Histogram
from ...obs.provenance import ProvenanceForest, build_forest
from ...obs.sampler import FragmentationSampler
from ...stats.tables import format_table
from .fig10_ycsb_rocksdb import _build_state, _protocol

#: the aging and workload seed (the bench suite's obs_trace figure reads it)
SEED = 42


@dataclass
class ObsTraceResult:
    """Everything the observability plane captured for one run."""

    obs: Instrumentation
    phase_ops: Dict[str, float] = field(default_factory=dict)
    fanout_before: Optional[Histogram] = None
    fanout_after: Optional[Histogram] = None
    defrag: Optional[DefragReport] = None
    sampler: Optional[FragmentationSampler] = None
    _forest: Optional[ProvenanceForest] = None

    def trace(self) -> Dict[str, object]:
        """Chrome trace_event document (load in chrome://tracing/Perfetto).

        Includes the fragmentation-timeline counter curves, the raw
        ``fragTimeline`` samples when a sampler ran, and — when causal
        tracing was armed — per-syscall/per-command provenance tracks
        with flow arrows linking each syscall to its tail command.
        """
        extra = None
        if self.obs.provenance is not None:
            extra = flow_events(self.forest())
        return chrome_trace(
            self.obs.spans, self.obs.registry,
            sampler=self.sampler, extra_events=extra,
        )

    def attribution(self):
        """Latency attribution over the whole run (sum-to-total checked)."""
        return attribute(self.obs.registry)

    # -- provenance views (armed runs only) ----------------------------

    def forest(self) -> ProvenanceForest:
        """Per-syscall command trees reconstructed from the event ring."""
        if self._forest is None:
            self._forest = build_forest(self.obs.spans)
        return self._forest

    def critical_path(self) -> CriticalPath:
        """The run's wall-clock decomposed along the critical path."""
        return critical_path(self.forest(), self.obs.spans)

    def flamegraph(self) -> str:
        """Collapsed-stack profile (flamegraph.pl / speedscope input)."""
        return flamegraph(self.forest(), self.obs.spans)

    def report(self, top: int = 10) -> str:
        """Every table of the run; armed runs add the provenance summary,
        the ``top`` slowest syscalls and the critical path."""
        phase_rows = [[name, ops] for name, ops in self.phase_ops.items()]
        parts = [format_table(["phase", "ops/s"], phase_rows)]
        if self.fanout_before is not None and self.fanout_after is not None:
            parts.append(format_table(
                ["split fan-out (cmds/syscall)", "mean", "p95", "max"],
                [
                    ["before defrag", self.fanout_before.mean,
                     self.fanout_before.quantile(0.95), self.fanout_before.max_value],
                    ["after defrag", self.fanout_after.mean,
                     self.fanout_after.quantile(0.95), self.fanout_after.max_value],
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
        if self.obs.provenance is not None:
            forest = self.forest()
            summary = forest.summary()
            parts.append(
                f"provenance: {summary['syscalls']} syscalls traced, "
                f"{summary['layer_crossing']} crossed to the device, "
                f"{summary['commands']} commands, "
                f"max fan-out {summary['max_fanout']} "
                f"({summary['orphan_edges']} orphan edges, "
                f"{summary['events_dropped']} ring drops)"
            )
            parts.append(f"top {top} slowest syscalls:\n{forest.table(top)}")
            parts.append(self.critical_path().table())
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
    obs: Optional[Instrumentation] = None,
    device: str = "optane",
) -> ObsTraceResult:
    """Run the instrumented protocol; returns spans + metrics + fan-out."""
    if smoke:
        capacity = 96 * MIB
        record_count = 1_200
        window_ops = 400
    if obs is None:
        obs = Instrumentation()
    with obs_hooks.use(obs):
        if obs.provenance is not None:
            # don't flood the ring with setup traffic: aging + db load
            # mint no pids; tracing arms at the first measured phase
            obs.provenance.suspend()
        fs, store, workload, now = _build_state(
            capacity, device, 16 * MIB, record_count, value_size, seed
        )
        if obs.provenance is not None:
            obs.provenance.resume()
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
