"""Defragmentation run reports.

Every tool (FragPicker and the conventional baselines) produces a
:class:`DefragReport` with the quantities the paper's evaluation tables
track: elapsed (virtual) time, read/write bytes issued by the tool, ranges
examined/migrated/skipped, and fragment counts before/after.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable

from ..constants import MIB
from ..fs.base import Filesystem
from ..fs.fiemap import fragment_count


@dataclass
class DefragReport:
    """Outcome of one defragmentation run."""

    tool: str
    started_at: float = 0.0
    finished_at: float = 0.0
    read_bytes: int = 0
    write_bytes: int = 0
    ranges_examined: int = 0
    ranges_migrated: int = 0
    ranges_skipped_contiguous: int = 0
    ranges_skipped_cold: int = 0
    #: ranges abandoned after retries were exhausted (skip-and-report —
    #: a failing file never aborts the whole run)
    ranges_failed: int = 0
    #: transient-fault retries across the whole run
    retries: int = 0
    files_examined: int = 0
    fragments_before: Dict[str, int] = field(default_factory=dict)
    fragments_after: Dict[str, int] = field(default_factory=dict)
    #: path -> last error, for every range that degraded to skip
    failures: Dict[str, str] = field(default_factory=dict)

    def begin(self, fs: Filesystem, paths: Iterable[str], now: float) -> None:
        """Open the run: start time and ``filefrag`` of every existing path."""
        self.started_at = now
        for path in paths:
            if path in fs.paths:
                self.fragments_before[path] = fragment_count(fs, path)

    def end(self, fs: Filesystem, now: float) -> None:
        """Close the run: finish time and ``filefrag`` of every file still there."""
        self.finished_at = now
        for path in self.fragments_before:
            if path in fs.paths:
                self.fragments_after[path] = fragment_count(fs, path)

    @property
    def elapsed(self) -> float:
        return self.finished_at - self.started_at

    @property
    def total_io_bytes(self) -> int:
        return self.read_bytes + self.write_bytes

    def summary(self) -> str:
        before = sum(self.fragments_before.values())
        after = sum(self.fragments_after.values())
        text = (
            f"{self.tool}: {self.elapsed:.3f}s, "
            f"read {self.read_bytes / MIB:.1f} MiB, write {self.write_bytes / MIB:.1f} MiB, "
            f"migrated {self.ranges_migrated}/{self.ranges_examined} ranges "
            f"({self.ranges_skipped_contiguous} contiguous, {self.ranges_skipped_cold} cold), "
            f"fragments {before} -> {after}"
        )
        if self.retries or self.ranges_failed:
            text += f", {self.retries} retries, {self.ranges_failed} failed"
        return text
