"""Conventional full-file defragmenters (Section 2.3).

All of them migrate the *entire* content of each fragmented file — the
behaviour FragPicker's selective migration is measured against.  Every
chunk moves through :func:`repro.core.migration.migrate_chunk`, the step
FragPicker uses too; only the policy around it is the tool's own:

- reads are O_DIRECT at ``read_io_size``.  e4defrag's observed pathology
  of issuing 4 KiB reads for fragmented data (Section 5.3.1) is
  reproduced this way.  Writes go through the page cache and are fsynced
  every ``FSYNC_EVERY_BYTES``.
- on in-place filesystems (Ext4) each chunk is punched and reallocated
  contiguously before the rewrite — I/O-equivalent to e4defrag's
  donor-file + ``EXT4_IOC_MOVE_EXT`` dance.  On out-of-place filesystems
  (Btrfs) a plain rewrite relocates data.
- on F2FS the tool turns IPU off around each file, but picks the path
  *before* that, so on stock F2FS (IPU on) the full-file-rewrite mimic
  takes the in-place punch+allocate path.  This is a known defect, kept
  for now; ROADMAP item 1 tracks it.
- there is no file lock and no truncate, and a file that runs out of
  space is given up.

``extent_threshold`` reproduces ``btrfs filesystem defragment -t``: extents
at least that large are left alone, so only runs of smaller extents are
rewritten.  Because those runs align with *extent* boundaries rather than
request boundaries, stride reads can still split (the paper's Conv.-T
misalignment argument).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..constants import KIB, MIB, block_align_down
from ..core.migration import ipu_disabled, migrate_chunk, out_of_place
from ..core.range_list import FileRange
from ..core.recovery import MigrationJournal
from ..core.report import DefragReport
from ..errors import NoSpaceError
from ..fs.base import FileHandle, Filesystem


#: chunk size: each chunk moves through one ``migrate_chunk``
WRITE_IO_SIZE = 1 * MIB
#: Conventional tools write through the page cache (e4defrag's donor
#: file, Btrfs CoW rewrite).  Dirty data then hits the device in large
#: writeback bursts at fsync time — the mechanism behind the heavy
#: co-running interference of Figures 2 and 10.
BUFFERED_WRITES = True
#: fsync cadence while migrating (one writeback burst per this much)
FSYNC_EVERY_BYTES = 4 * MIB
#: the app name (and block-tracer tag) the tools' syscalls carry
APP = "defrag"


@dataclass(frozen=True)
class ConventionalConfig:
    read_io_size: int = 1 * MIB
    #: skip extents >= this size (btrfs -t); None migrates everything
    extent_threshold: Optional[int] = None


class ConventionalDefragmenter:
    """Full-file migration tool."""

    def __init__(
        self,
        fs: Filesystem,
        config: Optional[ConventionalConfig] = None,
        tool_name: str = "conventional",
    ) -> None:
        self.fs = fs
        self.config = config if config is not None else ConventionalConfig()
        self.tool_name = tool_name
        #: optional crash-safety journal for the in-place punch path, so
        #: the crash harness can hold conventional tools to the same
        #: recoverability contract as FragPicker
        self.journal: Optional[MigrationJournal] = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def defragment(self, paths: Iterable[str], now: float = 0.0) -> DefragReport:
        """Defragment each file fully, sequentially."""
        report = DefragReport(tool=self.tool_name)
        for now in self._steps(report, paths, now):
            pass
        return report

    def actor(self, paths: Sequence[str], report_out: Optional[DefragReport] = None):
        """Co-running generator: yields after every migration syscall."""
        def _run(ctx):
            report = report_out if report_out is not None else DefragReport(tool=self.tool_name)
            for now in self._steps(report, paths, ctx.now):
                ctx.now = now
                yield
        return _run

    def _steps(self, report: DefragReport, paths: Iterable[str], now: float):
        """The whole run, yielding the running time after every syscall.

        Per-syscall granularity matters for co-running fairness: a real
        defragmenter's requests interleave with foreground traffic in the
        device queue rather than monopolizing it for megabytes at a time.
        """
        report.begin(self.fs, paths, now)
        report.files_examined = len(report.fragments_before)
        for path, file_range in self._work_items(report):
            report.ranges_examined += 1
            for now in self._migrate_range(path, file_range, report, now):
                yield now
        report.end(self.fs, now)

    # ------------------------------------------------------------------
    # work selection
    # ------------------------------------------------------------------

    def _work_items(self, report: DefragReport):
        """(path, range) pairs to migrate: whole files, or sub-threshold
        extent runs when an extent threshold is configured."""
        for path in list(report.fragments_before):
            if path not in self.fs.paths:
                continue
            if report.fragments_before[path] <= 1:
                report.ranges_skipped_contiguous += 1
                continue
            inode = self.fs.inode_of(path)
            end = block_align_down(inode.size)
            if end <= 0:
                continue
            if self.config.extent_threshold is None:
                yield path, FileRange(0, end)
                continue
            for run in self._small_extent_runs(path, end):
                yield path, run

    def _small_extent_runs(self, path: str, file_end: int) -> List[FileRange]:
        """Maximal runs of consecutive extents smaller than the threshold."""
        threshold = self.config.extent_threshold
        runs: List[FileRange] = []
        current: Optional[Tuple[int, int]] = None
        for extent in self.fs.inode_of(path).extent_map:
            if extent.file_offset >= file_end:
                break
            small = extent.length < threshold
            if small:
                if current is not None and current[1] == extent.file_offset:
                    current = (current[0], extent.file_end)
                else:
                    if current is not None:
                        runs.append(FileRange(current[0], min(current[1], file_end)))
                    current = (extent.file_offset, extent.file_end)
            else:
                if current is not None:
                    runs.append(FileRange(current[0], min(current[1], file_end)))
                    current = None
        if current is not None:
            runs.append(FileRange(current[0], min(current[1], file_end)))
        return runs

    # ------------------------------------------------------------------
    # migration mechanics
    # ------------------------------------------------------------------

    def _migrate_range(self, path: str, file_range: FileRange, report: DefragReport, now: float):
        """Migrate a range chunk by chunk, fsyncing every
        ``FSYNC_EVERY_BYTES``; gives up on the file when space runs out."""
        inode = self.fs.inode_of(path)
        handle = FileHandle(self.fs, inode.ino, o_direct=True, app=APP)
        write_handle = FileHandle(self.fs, inode.ino, o_direct=not BUFFERED_WRITES, app=APP)
        before = self.fs.tracer.tag(APP).snapshot()
        # Known defect, kept for byte-identical results: the predicate is
        # read *before* IPU is turned off, so stock F2FS takes the in-place
        # punch+allocate path (ROADMAP item 1).
        in_place = not out_of_place(self.fs)
        with ipu_disabled(self.fs):
            try:
                unsynced = 0
                for pos in range(file_range.start, file_range.end, WRITE_IO_SIZE):
                    length = min(WRITE_IO_SIZE, file_range.end - pos)
                    for now in migrate_chunk(
                        self.fs, handle, write_handle, pos, length, now,
                        in_place, self.config.read_io_size, self.journal,
                    ):
                        yield now
                    unsynced += length
                    if unsynced >= FSYNC_EVERY_BYTES:
                        now = self.fs.fsync(write_handle, now=now).finish_time
                        unsynced = 0
                        yield now
                now = self.fs.fsync(write_handle, now=now).finish_time
            except NoSpaceError:
                pass  # like real tools: give up on this file
        delta = self.fs.tracer.tag(APP).delta(before)
        report.read_bytes += delta.read_bytes
        report.write_bytes += delta.write_bytes
        report.ranges_migrated += 1
        yield now


# ----------------------------------------------------------------------
# factories matching the paper's tools
# ----------------------------------------------------------------------

def e4defrag(fs: Filesystem) -> ConventionalDefragmenter:
    """Ext4's e4defrag: full migration, 4 KiB reads of fragmented data."""
    return ConventionalDefragmenter(
        fs, ConventionalConfig(read_io_size=4 * KIB), tool_name="e4defrag"
    )


def btrfs_defragment(fs: Filesystem, extent_threshold: Optional[int] = None) -> ConventionalDefragmenter:
    """btrfs filesystem defragment, optionally with ``-t <threshold>``."""
    name = "btrfs.defragment" + ("-t" if extent_threshold else "")
    return ConventionalDefragmenter(
        fs, ConventionalConfig(extent_threshold=extent_threshold), tool_name=name
    )


def f2fs_defrag(fs: Filesystem) -> ConventionalDefragmenter:
    """The paper's F2FS full-file-rewrite mimic."""
    return ConventionalDefragmenter(fs, ConventionalConfig(), tool_name="f2fs-defrag")


def make_conventional(fs: Filesystem, extent_threshold: Optional[int] = None) -> ConventionalDefragmenter:
    """The natural conventional tool for a filesystem type (Conv. in figures)."""
    if fs.fs_type == "ext4":
        return e4defrag(fs)
    if fs.fs_type == "btrfs":
        return btrfs_defragment(fs, extent_threshold)
    return f2fs_defrag(fs)
