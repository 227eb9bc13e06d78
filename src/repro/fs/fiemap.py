"""FIEMAP / filefrag equivalents.

``fiemap`` reports the physical extents backing a file range, merged the
way ``filefrag -v`` merges them; ``fragment_count`` is ``filefrag``'s
headline number.  FragPicker's fragmentation-checking step is built on
this interface only — no filesystem internals — which is what makes it
filesystem-agnostic (Section 4.2.1).
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Union

from ..constants import block_align_up
from ..errors import DeviceIOError, InjectedCrash
from .base import Filesystem
from .inode import Inode


class FiemapExtent(NamedTuple):
    """One physical extent as FIEMAP reports it."""

    logical: int   # file offset
    physical: int  # device offset
    length: int
    is_last: bool


def _resolve(fs: Filesystem, target: Union[str, Inode]) -> Inode:
    if isinstance(target, Inode):
        return target
    return fs.inode_of(target)


def _fault_check(fs: Filesystem, inode: Inode, offset: int, length: int) -> None:
    """Site ``fs.fiemap``: the ioctl itself can fail mid-migration."""
    fire = fs.faults.check("fs.fiemap", op="fiemap", offset=offset, length=length)
    if fire is None:
        return
    if fire.kind == "crash":
        raise InjectedCrash(f"injected power-off during FIEMAP of {inode.path}")
    if fire.kind == "io_error":
        raise DeviceIOError(f"injected FIEMAP failure for {inode.path}")
    # latency/torn have no host-side meaning for an ioctl; ignore them


def fiemap(
    fs: Filesystem,
    target: Union[str, Inode],
    offset: int = 0,
    length: Optional[int] = None,
) -> List[FiemapExtent]:
    """Physical extents backing ``[offset, offset+length)`` of the file."""
    inode = _resolve(fs, target)
    if length is None:
        length = max(0, block_align_up(inode.size) - offset)
    if fs.faults.enabled:
        _fault_check(fs, inode, offset, length)
    pieces = []
    pos = offset
    for disk, piece_len in inode.extent_map.map_range(offset, length):
        if disk is not None:
            # merge with previous when physically contiguous
            if pieces and pieces[-1][0] + pieces[-1][2] == pos and pieces[-1][1] + pieces[-1][2] == disk:
                logical, physical, plen = pieces[-1]
                pieces[-1] = (logical, physical, plen + piece_len)
            else:
                pieces.append((pos, disk, piece_len))
        pos += piece_len
    return [
        FiemapExtent(logical, physical, plen, idx == len(pieces) - 1)
        for idx, (logical, physical, plen) in enumerate(pieces)
    ]


def fragment_count(fs: Filesystem, target: Union[str, Inode]) -> int:
    """``filefrag <file>``: number of physically discontiguous extents."""
    return _resolve(fs, target).extent_map.fragment_count()


def is_fragmented(fs: Filesystem, target: Union[str, Inode], offset: int, length: int) -> bool:
    """True when the file range maps to more than one physical run.

    This is FragPicker's per-range fragmentation check: it asks whether a
    single contiguous-LBA request could cover the range (holes are ignored
    — nothing to read there).
    """
    inode = _resolve(fs, target)
    if fs.faults.enabled:
        _fault_check(fs, inode, offset, length)
    ranges = inode.extent_map.disk_ranges(offset, length)
    if len(ranges) <= 1:
        return False
    merged_end = ranges[0][0] + ranges[0][1]
    for start, run_len in ranges[1:]:
        if start != merged_end:
            return True
        merged_end = start + run_len
    return False
