"""Section 5.3.2: SQLite on Btrfs on the MicroSD card.

Synchronous sequential insertion (journal and database writes interleaved)
shreds the database file on Btrfs without any aging.  Then, while a FIO
sequential writer runs in the foreground, either btrfs.defragment or
FragPicker (bypass plans — a SELECT is a sequential scan) defragments the
database, and finally a SELECT returning 30% of the data is timed.

Paper numbers for orientation: select 29.5 s -> 4.4 s; FragPicker moved
163 MB read / 137 MB write vs btrfs.defragment's 474/426 MB; defrag
elapsed 30% of the conventional tool's; co-running FIO throughput ~2x
higher with FragPicker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ...constants import GIB, MIB
from ...core import FragPicker
from ...core.report import DefragReport
from ...device import make_device
from ...fs import make_filesystem
from ...tools import btrfs_defragment
from ...workloads.fio import fio_sequential_writer
from ...workloads.sqlite_like import APP as SQLITE_APP, SqliteLike
from ..harness import corun_until_background_done


@dataclass
class SqliteRun:
    tool: str
    select_elapsed: float
    defrag_elapsed: float
    defrag_read_mb: float
    defrag_write_mb: float
    fio_mbps: float
    fragments_after: int


@dataclass
class SqliteResult:
    select_before: float
    runs: Dict[str, SqliteRun]

    @property
    def conventional(self) -> SqliteRun:
        return self.runs["btrfs.defragment"]

    def report(self) -> str:
        lines = [f"select before defrag: {self.select_before:.3f}s"]
        for run in self.runs.values():
            lines.append(
                f"{run.tool}: select {run.select_elapsed:.3f}s, defrag {run.defrag_elapsed:.2f}s "
                f"(R {run.defrag_read_mb:.0f} MB / W {run.defrag_write_mb:.0f} MB), "
                f"co-running FIO {run.fio_mbps:.1f} MB/s, frags after {run.fragments_after}"
            )
        return "\n".join(lines)


def _setup(rows: int, value_size: int):
    device = make_device("microsd", capacity=2 * GIB)
    fs = make_filesystem("btrfs", device)
    db = SqliteLike(fs)
    now = db.load_sequential(rows, value_size, 0.0)
    fs.drop_caches()
    return fs, db, now


def run(rows: int = 8_000, value_size: int = 4096, select_fraction: float = 0.3) -> SqliteResult:
    # baseline select on the fragmented database
    fs, db, now = _setup(rows, value_size)
    _, select_before = db.select_fraction(select_fraction, now)

    runs: Dict[str, SqliteRun] = {}
    for tool_name in ("btrfs.defragment", "fragpicker"):
        fs, db, now = _setup(rows, value_size)
        report = DefragReport(tool=tool_name)
        if tool_name == "btrfs.defragment":
            background = btrfs_defragment(fs).actor([db.config.db_path], report_out=report)
        else:
            # FragPicker analyses the workload it is optimizing for: the
            # SELECT scans only `select_fraction` of the database, so only
            # that part is worth migrating (the paper's 163 MB vs 474 MB).
            picker = FragPicker(fs)
            with picker.monitor(apps={SQLITE_APP}) as monitor:
                now, _ = db.select_fraction(select_fraction, now)
            fs.drop_caches()
            plans = picker.analyze(monitor.records, paths=[db.config.db_path])
            background = picker.actor(plans, report_out=report)
        fio = fio_sequential_writer(fs, duration=float("inf"))
        fio_ctx, _ = corun_until_background_done(fio, background, start=now)
        fio_mbps = fio_ctx.timeline.total() / fio_ctx.timeline.duration / 1e6 if fio_ctx.timeline.duration else 0.0
        now = fio_ctx.now
        fs.drop_caches()
        now, select_elapsed = db.select_fraction(select_fraction, now)
        runs[tool_name] = SqliteRun(
            tool=tool_name,
            select_elapsed=select_elapsed,
            defrag_elapsed=report.elapsed,
            defrag_read_mb=report.read_bytes / MIB,
            defrag_write_mb=report.write_bytes / MIB,
            fio_mbps=fio_mbps,
            fragments_after=sum(report.fragments_after.values()),
        )
    return SqliteResult(select_before=select_before, runs=runs)
