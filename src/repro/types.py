"""Shared primitive types.

The whole stack measures file offsets, LBAs, and lengths in *bytes* (block
aligned where the layer requires it).  ``ByteRange`` is the half-open
interval primitive used by the VFS, the extent maps, and FragPicker's file
range lists.

``IoOp`` is the *workload-level* operation record: one read/write/fsync a
workload intends to issue against a file, before the VFS has applied
readahead, the page cache, or request splitting.  Trace replay
(:mod:`repro.replay`) is its consumer: the trace readers and the seeded
corpus generator yield ``IoOp`` streams, and the replay reconstructor
and the fleet's ``trace:<path>`` foreground loop turn them into
syscalls (the synthetic workloads issue their syscalls directly).  It is
distinct from
:class:`repro.block.request.IoOp`, the block-layer *command kind* enum —
one is "what the application asked for", the other is "what the device
was told to do".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import InvalidArgument

#: the operation kinds a workload-level :class:`IoOp` may carry
IO_OP_KINDS = ("read", "write", "fsync")


class IoOp(NamedTuple):
    """One workload-level I/O operation (the unified op record).

    A NamedTuple with no validation on purpose: op streams are built in
    per-request loops (millions of records for a replayed trace), and the
    boundary that consumes them — the filesystem syscall layer or the
    replay reconstructor — validates once anyway.

    Attributes:
        op: ``"read"`` / ``"write"`` / ``"fsync"``.
        file_id: trace-scoped file identity (an inode number for captured
            syscall traces, a synthetic id for generators, a lifted
            region index for block traces).  Placement policies map it to
            a path; single-file workloads use 0.
        offset: file byte offset (0 for fsync).
        size: bytes (0 for fsync).
        time: submission timestamp in trace/virtual seconds (0.0 for
            closed-loop synthetic streams, which are paced by completion).
        o_direct: whether the op bypasses the page cache.
    """

    op: str
    file_id: int
    offset: int
    size: int
    time: float = 0.0
    o_direct: bool = True

    @property
    def end(self) -> int:
        return self.offset + self.size


@dataclass(frozen=True, order=True)
class ByteRange:
    """Half-open byte interval ``[start, end)``."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise InvalidArgument(f"bad range [{self.start}, {self.end})")

    @property
    def length(self) -> int:
        return self.end - self.start

    def overlaps(self, other: "ByteRange") -> bool:
        """True when the two ranges share at least one byte, or touch.

        Touching ranges (``self.end == other.start``) are treated as
        overlapping on purpose: FragPicker's merge step must coalesce
        adjacent I/Os, otherwise migrating them separately would re-create
        fragmentation at their boundary (Section 4.1.2 of the paper).
        """
        return self.start <= other.end and other.start <= self.end

    def intersects(self, other: "ByteRange") -> bool:
        """Strict overlap: the ranges share at least one byte."""
        return max(self.start, other.start) < min(self.end, other.end)

    def union(self, other: "ByteRange") -> "ByteRange":
        return ByteRange(min(self.start, other.start), max(self.end, other.end))

    def intersection(self, other: "ByteRange") -> "ByteRange":
        if not self.intersects(other):
            raise InvalidArgument(f"{self} and {other} do not intersect")
        return ByteRange(max(self.start, other.start), min(self.end, other.end))

    def contains(self, other: "ByteRange") -> bool:
        return self.start <= other.start and other.end <= self.end

    def shift(self, delta: int) -> "ByteRange":
        return ByteRange(self.start + delta, self.end + delta)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.start}, {self.end})"
