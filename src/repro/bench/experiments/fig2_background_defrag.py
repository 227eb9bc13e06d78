"""Figure 2: YCSB workload-A throughput while e4defrag works in the
background on unrelated files.

Protocol (scaled from the paper's 30 GB / 1000 files): build a set of
fragmented dummy files and a separate LSM database on Ext4/flash, run
YCSB-A (50/50 read/update, zipfian), and after a warm-up window start a
defragmenter on the dummy files.  The result carries the ops/sec timeline
plus the average throughput before/during defragmentation — the paper
reports a ~32% drop for e4defrag.  Running FragPicker instead (bypass
plans over the same files) shows the contrast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ...constants import GIB, KIB, MIB
from ...core import FragPicker, FragPickerConfig
from ...core.report import DefragReport
from ...device import make_device
from ...fs import make_filesystem
from ...stats.timeline import windowed_throughput
from ...tools import e4defrag
from ...workloads.fileserver import FileServer, FileServerConfig
from ...workloads.kvstore import LsmConfig, LsmStore
from ...workloads.ycsb import YcsbConfig, YcsbWorkload
from ..harness import corun_until_background_done


@dataclass
class Fig2Run:
    tool: str
    before_ops: float
    during_ops: float
    after_ops: float
    defrag_elapsed: float
    defrag_write_mb: float
    timeline: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def degradation(self) -> float:
        return 1.0 - self.during_ops / self.before_ops if self.before_ops else 0.0

    @property
    def samples(self) -> int:
        return len(self.timeline)


@dataclass
class Fig2Result:
    runs: Dict[str, Fig2Run]

    def report(self) -> str:
        lines = []
        for run in self.runs.values():
            lines.append(
                f"{run.tool}: before {run.before_ops:.0f} op/s, during {run.during_ops:.0f} op/s "
                f"({run.degradation * 100:.0f}% drop), after {run.after_ops:.0f} op/s, "
                f"defrag took {run.defrag_elapsed:.1f}s writing {run.defrag_write_mb:.0f} MB"
            )
        return "\n".join(lines)


def _setup(seed: int, dummy_files: int, dummy_mean: int, record_count: int, value_size: int):
    device = make_device("flash", capacity=4 * GIB)
    fs = make_filesystem("ext4", device)
    server = FileServer(
        fs,
        FileServerConfig(
            directory="/dummies", file_count=dummy_files, mean_file_size=dummy_mean,
            churn_rounds=1, seed=seed,
        ),
    )
    now = server.populate(0.0)
    store = LsmStore(fs, LsmConfig(block_size=128 * KIB))
    workload = YcsbWorkload(
        store,
        YcsbConfig(record_count=record_count, value_size=value_size,
                   read_proportion=0.5, update_proportion=0.5, seed=seed),
    )
    now = workload.load(now)
    fs.drop_caches()
    return fs, server, workload, now


def run(
    dummy_files: int = 50,
    dummy_mean: int = 2 * MIB,
    record_count: int = 20_000,
    value_size: int = 1024,
    window_ops: int = 8_000,
    warmup_ops: int = 6_000,
    seed: int = 42,
) -> Fig2Result:
    """Run Figure 2 with e4defrag, then with FragPicker for contrast."""
    runs: Dict[str, Fig2Run] = {}
    for tool_name in ("e4defrag", "fragpicker"):
        fs, server, workload, now = _setup(seed, dummy_files, dummy_mean, record_count, value_size)
        now, _ = workload.run_ops(warmup_ops, now)  # reach steady state
        now, before = workload.run_ops(window_ops, now)
        report = DefragReport(tool=tool_name)
        if tool_name == "e4defrag":
            background = e4defrag(fs).actor(server.paths, report_out=report)
        else:
            picker = FragPicker(fs, FragPickerConfig())
            background = picker.actor(picker.bypass_plans(server.paths), report_out=report)
        fg_ctx, bg_ctx = corun_until_background_done(
            workload.actor(duration=float("inf")), background, start=now
        )
        during = fg_ctx.timeline.rate()
        now = max(fg_ctx.now, bg_ctx.now)
        now, after = workload.run_ops(window_ops, now)
        samples = windowed_throughput(
            fg_ctx.timeline, window=max(report.elapsed / 20.0, 1e-3)
        )
        runs[tool_name] = Fig2Run(
            tool=tool_name,
            before_ops=before,
            during_ops=during,
            after_ops=after,
            defrag_elapsed=report.elapsed,
            defrag_write_mb=report.write_bytes / MIB,
            timeline=samples,
        )
    return Fig2Result(runs=runs)
