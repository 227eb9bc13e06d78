"""Figure 10: YCSB workload-C over the LSM store on aged Ext4 / Optane.

The paper's protocol, scaled down: age the filesystem with dummy churn
(the Dabre-profile substitute), load the database (its tables land in
fragmented free space), free some dummy space, then measure workload
throughput in phases:

- **before** — no defragmentation running,
- **analysis** — FragPicker's syscall monitor attached (probe overhead),
- **migration / defrag** — the tool runs concurrently with the workload,
- **after** — post-defragmentation throughput.

Both e4defrag and FragPicker (hotness criterion 0.5, as in the paper) run
this protocol on identically rebuilt (same-seed) states.  Reported per
variant: phase throughputs, defrag elapsed time, and defrag I/O bytes.
:mod:`.obs_trace` (``repro trace`` and the bench suite's ``obs_trace``
figure) runs the FragPicker arm of the same protocol at trace sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ...constants import GIB, KIB, MIB
from ...core import FragPicker, FragPickerConfig
from ...core.report import DefragReport
from ...device import make_device
from ...fs import make_filesystem
from ...obs.metrics import Histogram
from ...stats.tables import format_table
from ...tools import e4defrag
from ...workloads.aging import age_filesystem
from ...workloads.kvstore import LsmConfig, LsmStore
from ...workloads.ycsb import YcsbConfig, YcsbWorkload
from ..harness import corun_until_background_done


@dataclass
class PhaseStats:
    ops_per_sec: float
    ops: int
    duration: float
    #: ``block.split_fanout`` delta over a workload window; None for the
    #: co-run defrag phase and when obs is off
    fanout: Optional[Histogram] = None


@dataclass
class VariantRun:
    tool: str
    phases: Dict[str, PhaseStats] = field(default_factory=dict)
    report: Optional[DefragReport] = None
    fragments_before: int = 0
    fragments_after: int = 0
    #: virtual time the protocol's last phase finished at
    finished_at: float = 0.0

    @property
    def defrag_elapsed(self) -> float:
        return self.report.elapsed

    @property
    def defrag_read_mb(self) -> float:
        return self.report.read_bytes / MIB

    @property
    def defrag_write_mb(self) -> float:
        return self.report.write_bytes / MIB

    @property
    def total_io_mb(self) -> float:
        return self.defrag_read_mb + self.defrag_write_mb

    def improvement_after(self) -> float:
        before = self.phases["before"].ops_per_sec
        after = self.phases["after"].ops_per_sec
        return after / before - 1.0 if before else 0.0


@dataclass
class Fig10Result:
    runs: Dict[str, VariantRun]

    @property
    def post_defrag_gap(self) -> float:
        fp, e4 = self.runs["fragpicker"], self.runs["e4defrag"]
        return 1.0 - fp.phases["after"].ops_per_sec / e4.phases["after"].ops_per_sec

    @property
    def analysis_drop(self) -> float:
        phases = self.runs["fragpicker"].phases
        return 1.0 - phases["analysis"].ops_per_sec / phases["before"].ops_per_sec

    def report(self) -> str:
        headers = ["tool", "before op/s", "analysis op/s", "defrag op/s",
                   "after op/s", "defrag s", "R+W MB", "frags before", "frags after"]
        rows = []
        for run in self.runs.values():
            rows.append([
                run.tool,
                run.phases["before"].ops_per_sec,
                run.phases.get("analysis", run.phases["before"]).ops_per_sec,
                run.phases["defrag"].ops_per_sec,
                run.phases["after"].ops_per_sec,
                run.defrag_elapsed,
                run.total_io_mb,
                run.fragments_before,
                run.fragments_after,
            ])
        return format_table(headers, rows)


def _build_state(
    capacity: int, device: str, metadata_region: int,
    record_count: int, value_size: int, seed: int,
) -> Tuple:
    """Aged filesystem + loaded database, fully deterministic."""
    fs = make_filesystem(
        "ext4", make_device(device, capacity=capacity),
        metadata_region=metadata_region,
    )
    # Fill nearly full with small files, then delete a random subset: the
    # remaining free space is all small holes, so the database tables land
    # shredded (an aged filesystem, the paper's Dabre-profile substitute).
    age_filesystem(fs, fill_fraction=0.997, delete_fraction=0.35,
                   min_file=8 * KIB, max_file=48 * KIB, seed=seed)
    store = LsmStore(fs, LsmConfig(block_size=128 * KIB, memtable_bytes=4 * MIB))
    workload = YcsbWorkload(
        store,
        YcsbConfig(record_count=record_count, value_size=value_size,
                   read_proportion=1.0, update_proportion=0.0, seed=seed),
    )
    now = workload.load(0.0)
    # Delete a *contiguous* band of dummy files after loading — the
    # paper's "deleted some of the dummy files to secure some free space":
    # consecutively created files are adjacent on disk, so this opens large
    # runs the defragmenters can migrate into.
    leftovers = sorted(fs.listdir("/aging"))
    band = leftovers[len(leftovers) // 3 : len(leftovers) // 3 + len(leftovers) // 4]
    for path in band:
        now = fs.unlink(path, now=now).finish_time
    fs.drop_caches()
    return fs, store, workload, now


def _phase(obs, name: str, workload: YcsbWorkload, ops: int,
           now: float) -> Tuple[float, PhaseStats]:
    """One measured workload window inside a ``phase.<name>`` span."""
    span = obs.span_start(f"phase.{name}", now)
    fanout = obs.registry.histogram("block.split_fanout") if obs.enabled else None
    mark = fanout.snapshot() if fanout is not None else None
    start = now
    now, ops_per_sec = workload.run_ops(ops, now)
    obs.span_finish(span, now)
    return now, PhaseStats(
        ops_per_sec=ops_per_sec, ops=ops, duration=now - start,
        fanout=fanout.delta(mark) if fanout is not None else None,
    )


def _avg_frags(fs, paths: List[str]) -> int:
    counts = [fs.inode_of(p).fragment_count() for p in paths if fs.exists(p)]
    return sum(counts) // max(1, len(counts))


def _protocol(
    tool: str, fs, store: LsmStore, workload: YcsbWorkload, now: float,
    window_ops: int, warmup_ops: int, hotness: float,
) -> VariantRun:
    """The Figure 10 protocol for one tool on a built state.

    Warm up, then measure *before*; FragPicker alone adds the *analysis*
    window under its syscall monitor.  The tool then defragments while
    the workload co-runs (*defrag*), and *after* measures the result.
    e4defrag and FragPicker differ only in the analysis phase and the
    background actor.
    """
    obs = fs.obs
    result = VariantRun(tool=tool, report=DefragReport(tool=tool))
    result.fragments_before = _avg_frags(fs, store.files())
    now, _ = workload.run_ops(warmup_ops, now)
    now, result.phases["before"] = _phase(obs, "before", workload, window_ops, now)
    if tool == "fragpicker":
        picker = FragPicker(fs, FragPickerConfig(hotness_criterion=hotness))
        with picker.monitor(apps={"rocksdb"}) as monitor:
            now, result.phases["analysis"] = _phase(
                obs, "analysis", workload, window_ops, now
            )
        plans = picker.analyze(monitor.records, paths=store.files(), now=now)
        background = picker.actor(plans, report_out=result.report)
    else:
        background = e4defrag(fs).actor(store.files(), report_out=result.report)
    fg_ctx, bg_ctx = corun_until_background_done(
        workload.actor(duration=float("inf")), background, start=now,
    )
    during = fg_ctx.timeline
    result.phases["defrag"] = PhaseStats(
        ops_per_sec=during.rate(), ops=len(during.events), duration=during.duration
    )
    now = max(fg_ctx.now, bg_ctx.now)
    now, result.phases["after"] = _phase(obs, "after", workload, window_ops, now)
    result.fragments_after = _avg_frags(fs, store.files())
    result.finished_at = now
    return result


def run(
    record_count: int = 30_000,
    value_size: int = 1024,
    window_ops: int = 2_000,
    warmup_ops: int = 3_000,
    hotness: float = 0.5,
    seed: int = 42,
) -> Fig10Result:
    """Run the Figure 10 protocol for e4defrag and FragPicker."""
    runs: Dict[str, VariantRun] = {}
    for tool in ("e4defrag", "fragpicker"):
        fs, store, workload, now = _build_state(
            2 * GIB, "optane", 64 * MIB, record_count, value_size, seed
        )
        runs[tool] = _protocol(
            tool, fs, store, workload, now, window_ops, warmup_ops, hotness
        )
    return Fig10Result(runs=runs)
