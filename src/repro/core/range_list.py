"""File range lists and Algorithm 1 (merging overlapped I/Os).

A *file range list* is FragPicker's per-file unit of work: byte ranges the
application actually touched, each with an I/O count reflecting hotness.
``merge_overlapped`` is a faithful implementation of the paper's
Algorithm 1: sort by start offset, sweep with an ``overlap_window`` that
absorbs every *overlapping* entry while counting absorptions (the paper's
example merges I/Os over 1-40 and 31-60 into 1-60 with count 2).

Merely *touching* ranges stay separate on purpose: requests aligned to the
observed I/O boundaries never span two entries, so migrating them
independently cannot re-introduce request splitting — and keeping entries
at request granularity is exactly what lets the later fragmentation check
skip already-contiguous pieces (the bypass option likewise emits separate
readahead-sized entries, Section 4.1.4).
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence

from ..errors import InvalidArgument
from ..types import Record


class _FileRangeFields(NamedTuple):
    start: int
    end: int
    count: int = 1


class FileRange(_FileRangeFields):
    """Half-open byte range with an I/O (hotness) count."""

    __slots__ = ()

    def __new__(cls, start: int, end: int, count: int = 1) -> "FileRange":
        if start < 0 or end <= start:
            raise InvalidArgument(f"bad file range [{start}, {end})")
        if count < 1:
            raise InvalidArgument("count must be >= 1")
        return tuple.__new__(cls, (start, end, count))

    @property
    def length(self) -> int:
        return self.end - self.start


class FileRangeList(Record):
    """All analysed ranges for one file."""

    __slots__ = _fields = ("ino", "path", "ranges")

    def __init__(self, ino: int, path: str, ranges: Optional[List[FileRange]] = None) -> None:
        self.ino = ino
        self.path = path
        self.ranges = ranges if ranges is not None else []

    @property
    def total_bytes(self) -> int:
        return sum(r.length for r in self.ranges)

    def sorted_by_start(self) -> List[FileRange]:
        return sorted(self.ranges, key=lambda r: r.start)

    def sorted_by_hotness(self) -> List[FileRange]:
        return sorted(self.ranges, key=lambda r: (-r.count, r.start))


def merge_overlapped(entries: Sequence[FileRange]) -> List[FileRange]:
    """Algorithm 1: merge overlapped/adjacent I/O ranges, counting hits.

    ``entries`` need not be sorted; counts of merged entries accumulate
    (an entry arriving with count > 1 — e.g. from a previous merge —
    contributes its full count).
    """
    if not entries:
        return []
    ordered = sorted(entries, key=lambda r: (r.start, r.end))
    merged: List[FileRange] = []
    window_start = ordered[0].start
    window_end = ordered[0].end
    count = ordered[0].count
    for entry in ordered[1:]:
        if entry.start < window_end:  # strictly overlapped: absorb
            count += entry.count
            if entry.end > window_end:
                window_end = entry.end
        else:  # store the window, start a new one
            merged.append(FileRange(window_start, window_end, count))
            window_start, window_end, count = entry.start, entry.end, entry.count
    merged.append(FileRange(window_start, window_end, count))
    return merged
