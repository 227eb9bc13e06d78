"""Block layer: contiguous-LBA I/O commands, splitting, scheduling, tracing.

This layer reproduces the structural cause of the paper's *request
splitting*: a single system call against a fragmented file maps to several
disjoint LBA ranges, and because a device command (like a Linux ``bio``) can
only describe one contiguous range, the call becomes several commands.
"""

from .request import IoCommand, IoOp
from .splitter import split_ranges
from .scheduler import BlockScheduler, SubmitResult
from .tracer import BlockTracer, TrafficCounter

__all__ = [
    "IoCommand",
    "IoOp",
    "split_ranges",
    "BlockScheduler",
    "SubmitResult",
    "BlockTracer",
    "TrafficCounter",
]
