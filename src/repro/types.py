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

:class:`Record` is the base of the mutable records (per-run counters,
reports, per-file state): a subclass lists its fields once and writes
its own ``__init__``, and inherits the ``repr`` and ``==`` a
``@dataclass`` would generate.  Immutable records are NamedTuples.
Neither runs a code generator when its module is imported, which a
``@dataclass`` does for every class it decorates.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

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


class Record:
    """Mutable record: ``repr`` and ``==`` over :attr:`_fields`, in order.

    A subclass declares ``__slots__ = _fields = (...)`` (or only
    ``_fields``, to keep an instance ``__dict__`` that ``vars()`` reads) and
    assigns every field in its ``__init__``.  Equality holds between
    instances of the same class whose fields compare equal, as a
    dataclass's does; records are unhashable, like a dataclass with
    ``eq=True``.
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (tuple(getattr(self, name) for name in self._fields)
                == tuple(getattr(other, name) for name in self._fields))
