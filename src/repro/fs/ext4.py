"""Ext4-flavoured filesystem: in-place updates, extent-based allocation.

Updates to already-mapped blocks reuse them (in-place), which is why
FragPicker must punch + fallocate before rewriting on Ext4 (Section 4.2.2).
New data gets multi-block, goal-directed allocation — Ext4's mballoc
behaviour — and buffered writes benefit from delayed allocation because the
base class only calls :meth:`_allocate_write` at writeback time.
"""

from __future__ import annotations

from typing import List, Tuple

from .base import Filesystem
from .extent_map import Extent
from .inode import Inode


class Ext4(Filesystem):
    """In-place-update, extent-based personality."""

    fs_type = "ext4"
    in_place_updates = True

    def _allocate_write(self, inode: Inode, offset: int, length: int) -> List[Tuple[int, int]]:
        ranges: List[Tuple[int, int]] = []
        pos = offset
        for disk, piece_len in inode.extent_map.map_range(offset, length):
            if disk is not None:
                # in-place: reuse the existing blocks
                ranges.append((disk, piece_len))
            else:
                goal = self._goal_for(inode, pos)
                runs = self.free_space.alloc(piece_len, goal=goal)
                run_pos = pos
                for run_start, run_len in runs:
                    inode.extent_map.insert(
                        tuple.__new__(Extent, (run_pos, run_start, run_len))
                    )
                    ranges.append((run_start, run_len))
                    run_pos += run_len
            pos += piece_len
        return ranges
