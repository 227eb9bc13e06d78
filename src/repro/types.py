"""Shared primitive types.

The whole stack measures file offsets, LBAs, and lengths in *bytes* (block
aligned where the layer requires it), as plain ints and
``(offset, length)`` tuples.

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

from typing import NamedTuple

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
