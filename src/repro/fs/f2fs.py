"""F2FS-flavoured filesystem: log-structured, out-of-place updates.

All writes are appended at the log head, carving 2 MiB segments out of the
free pool.  Overwriting data therefore *moves* it — which is exactly why
FragPicker can defragment F2FS by simply rewriting data at the same file
offset.  The ``ipu`` sysfs knob enables in-place updates (F2FS does this to
limit cleaning cost); FragPicker disables it around migration
(Section 5.1).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..constants import MIB
from ..errors import NoSpaceError
from .base import Filesystem
from .extent_map import Extent
from .inode import Inode

SEGMENT_SIZE = 2 * MIB

#: sysfs knob name, mirroring /sys/fs/f2fs/<dev>/ipu_policy
IPU_KNOB = "ipu_policy"


class F2fs(Filesystem):
    """Log-structured personality with an in-place-update knob."""

    fs_type = "f2fs"
    in_place_updates = False  # default policy; see sysfs knob

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # F2FS ships with an adaptive IPU policy: overwrites of mapped data
        # may go in place to limit segment-cleaning cost (Section 5.1's
        # reason FragPicker must toggle this knob around migration).
        self.sysfs.setdefault(IPU_KNOB, "1")
        self._log_start: Optional[int] = None
        self._log_remaining = 0

    # -- policy ------------------------------------------------------------

    @property
    def ipu_enabled(self) -> bool:
        return self.sysfs.get(IPU_KNOB, "0") != "0"

    def set_ipu(self, enabled: bool) -> None:
        self.sysfs[IPU_KNOB] = "1" if enabled else "0"

    # -- allocation ----------------------------------------------------------

    def _allocate_write(self, inode: Inode, offset: int, length: int) -> List[Tuple[int, int]]:
        if self.ipu_enabled and inode.extent_map.is_fully_mapped(offset, length):
            return inode.extent_map.disk_ranges(offset, length)
        ranges: List[Tuple[int, int]] = []
        pos = offset
        remaining = length
        while remaining > 0:
            run_start, run_len = self._log_take(remaining)
            displaced = inode.extent_map.insert(Extent(pos, run_start, run_len))
            for old in displaced:
                self.free_space.free(old.disk_offset, old.length)
            ranges.append((run_start, run_len))
            pos += run_len
            remaining -= run_len
        return ranges

    def _log_take(self, length: int) -> Tuple[int, int]:
        """Carve the next piece from the active log segment."""
        if self._log_remaining == 0:
            self._open_segment()
        take = min(length, self._log_remaining)
        start = self._log_start
        self._log_start += take
        self._log_remaining -= take
        return start, take

    def _open_segment(self) -> None:
        """Advance the log head to a fresh segment.

        Prefers a clean 2 MiB run after the current head (sequential
        logging); under fragmented free space falls back to the largest
        available run — F2FS's SSR-style degraded logging.
        """
        goal = self._log_start if self._log_start is not None else None
        try:
            start = self.free_space.alloc_contiguous(SEGMENT_SIZE, goal=goal)
            self._log_start, self._log_remaining = start, SEGMENT_SIZE
            return
        except NoSpaceError:
            pass
        runs = self.free_space.alloc(min(SEGMENT_SIZE, self.free_space.largest_run()) or SEGMENT_SIZE, goal=goal)
        # alloc() stitched runs; keep the first as the active segment and
        # return the rest (logging wants one contiguous window).
        start, run_len = runs[0]
        for extra_start, extra_len in runs[1:]:
            self.free_space.free(extra_start, extra_len)
        self._log_start, self._log_remaining = start, run_len
