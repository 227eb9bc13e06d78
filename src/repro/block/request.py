"""I/O command structures.

A device command corresponds to the chain ``bio -> request -> device
command`` in Linux: it can only express one *contiguous* LBA range.  That
restriction is what makes fragmentation expensive on modern devices — the
paper's *request splitting*.

On the submit path a syscall's commands travel as one batch — one op and
one tag plus plain ``(offset, length)`` ranges — so
:class:`IoCommand` is only the record the block tracer keeps for each of
them (``keep_log`` and the ``block.cmd`` events).
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class IoOp(enum.Enum):
    READ = "read"
    WRITE = "write"
    DISCARD = "discard"


class IoCommand(NamedTuple):
    """The record of one contiguous-LBA device command.

    Attributes:
        op: read / write / discard.
        offset: device byte address (LBA * block size).
        length: bytes, > 0.
        tag: origin label used by the tracer to attribute traffic
            (e.g. ``"workload"`` vs ``"defrag"``).
    """

    op: IoOp
    offset: int
    length: int
    tag: str = ""

    @property
    def end(self) -> int:
        return self.offset + self.length
