"""Turning mapped disk ranges into device commands.

``split_ranges`` is where *request splitting* physically happens on the
write side of this stack (O_DIRECT writes and writeback): the filesystem
maps a system call to a list of
``(disk_offset, length)`` ranges (one per extent piece), adjacent ranges
are merged back together (the block layer's request merging), and every
surviving range is capped at ``MAX_REQUEST_SIZE`` and becomes one device
command.  Reads build the same list in one walk over the extent map
(:meth:`repro.fs.extent_map.ExtentMap.commands`), without the
intermediate range list.

A perfectly contiguous file therefore yields one command per syscall, while
a file fragmented into 4 KiB pieces yields one command per piece — exactly
the effect Figure 1 of the paper illustrates.

Every command of one syscall shares its op and origin tag, so a batch
travels below the filesystem as ``(op, tag, ranges)``: the ranges
returned here are the batch's commands.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..constants import MAX_REQUEST_SIZE

DiskRange = Tuple[int, int]  # (device byte offset, length)


def split_ranges(
    ranges: Sequence[DiskRange],
    max_request_size: int = MAX_REQUEST_SIZE,
) -> List[DiskRange]:
    """The ``(offset, length)`` commands of one write or writeback run.

    Returns one pair per contiguous LBA run, each at most
    ``max_request_size`` bytes.  ``len(result)`` is the paper's
    "number of I/O requests" for the syscall.

    Ranges are merged only when the end of one equals the start of the
    next, and the input order is preserved (an elevator would sort; the
    default ``none``/``mq-deadline`` path the paper measures keeps
    submission order for a single synchronous syscall).  Zero-length
    ranges are dropped.  Merging and capping happen in a single pass —
    this runs once per write with one entry per extent piece, so no
    intermediate merged list is allocated.
    """
    commands: List[DiskRange] = []
    append = commands.append
    extend = commands.extend
    # Full-size caps for a long run are emitted as one list.extend over a
    # generator — the count is arithmetic, not a subtract-and-test loop.
    cur_offset = 0
    cur_length = 0
    for offset, length in ranges:
        if length <= 0:
            continue
        if cur_length and cur_offset + cur_length == offset:
            cur_length += length
            continue
        if cur_length:
            caps = (cur_length - 1) // max_request_size
            if caps:
                extend(
                    (cur_offset + i * max_request_size, max_request_size)
                    for i in range(caps)
                )
                cur_offset += caps * max_request_size
                cur_length -= caps * max_request_size
            append((cur_offset, cur_length))
        cur_offset = offset
        cur_length = length
    if cur_length:
        caps = (cur_length - 1) // max_request_size
        if caps:
            extend(
                (cur_offset + i * max_request_size, max_request_size)
                for i in range(caps)
            )
            cur_offset += caps * max_request_size
            cur_length -= caps * max_request_size
        append((cur_offset, cur_length))
    return commands
