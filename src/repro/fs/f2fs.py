"""F2FS-flavoured filesystem: log-structured, out-of-place updates.

All writes are appended at the log head, carving 2 MiB segments out of the
free pool.  Overwriting data therefore *moves* it — which is exactly why
FragPicker can defragment F2FS by simply rewriting data at the same file
offset.  The ``ipu`` sysfs knob enables in-place updates (F2FS does this to
limit cleaning cost); FragPicker disables it around migration
(Section 5.1).

A segment cleaner is included (:meth:`F2fs.clean_segments`): it picks the
segment-aligned victim windows with the least live data, relocates their
live extents to the log head, and returns whole free segments to the pool
— the foreground/background GC of a log-structured filesystem, and the
mechanism the paper's related work (AALFS [50]) piggybacks
defragmentation on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..constants import MIB
from ..block.request import IoOp
from ..block.splitter import split_ranges
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

    # -- segment cleaning ----------------------------------------------------

    def clean_segments(self, count: int = 1, now: float = 0.0) -> Tuple[float, int]:
        """Relocate live data out of the emptiest segment windows.

        Greedy victim selection: the segment-aligned windows with the most
        free bytes (least live data) are compacted first.  Live extents
        are read and appended at the log head (real device I/O, tagged
        ``"gc"``); afterwards each victim window is one whole free
        segment.  Returns ``(finish_time, segments_cleaned)``.
        """
        start = now
        cleaned = 0
        for _ in range(count):
            window = self._pick_victim_window()
            if window is None:
                break
            now = self._compact_window(window, now)
            cleaned += 1
        if self.obs.enabled and cleaned:
            # the GC ioctl surface: its elapsed time joins the measured
            # total so the gc traffic's block/device slices stay balanced
            self.obs.syscall("gc", now - start)
        return now, cleaned

    def _segment_free_bytes(self) -> Dict[int, int]:
        """Free bytes per segment-aligned window (partial windows only)."""
        per_segment: Dict[int, int] = {}
        for start, length in self.free_space.runs():
            pos = start
            end = start + length
            while pos < end:
                segment = pos // SEGMENT_SIZE
                take = min((segment + 1) * SEGMENT_SIZE, end) - pos
                per_segment[segment] = per_segment.get(segment, 0) + take
                pos += take
        return per_segment

    def _pick_victim_window(self) -> Optional[int]:
        """The dirtiest (most-free, not fully-free) segment window."""
        active = (
            self._log_start // SEGMENT_SIZE if self._log_remaining else None
        )
        best = None
        best_free = 0
        for segment, free in self._segment_free_bytes().items():
            if free >= SEGMENT_SIZE or segment == active:
                continue  # already clean, or the live log head
            if free > best_free:
                best, best_free = segment, free
        return best

    def _compact_window(self, segment: int, now: float) -> float:
        """Move every live extent out of the window, then free it whole."""
        window_start = segment * SEGMENT_SIZE
        window_end = window_start + SEGMENT_SIZE
        # never relocate *into* the victim: park the log head past it
        log_end = (self._log_start or 0) + self._log_remaining
        overlaps_victim = (
            self._log_remaining > 0
            and self._log_start < window_end
            and log_end > window_start
        )
        if overlaps_victim:
            self.free_space.free(self._log_start, self._log_remaining)
            self._log_remaining = 0
        if self._log_remaining == 0:
            self._log_start = window_end

        for inode in list(self.inodes.values()):
            victims = [
                extent
                for extent in inode.extent_map.extents()
                if extent.disk_offset < window_end and extent.disk_end > window_start
            ]
            for extent in victims:
                lo = max(extent.disk_offset, window_start)
                hi = min(extent.disk_end, window_end)
                file_lo = extent.file_offset + (lo - extent.disk_offset)
                length = hi - lo
                # read the live data, append it at the log head
                now = self.scheduler.submit(
                    IoOp.READ, split_ranges([(lo, length)]), now, "gc"
                ).finish_time
                ranges: List[Tuple[int, int]] = []
                pos = file_lo
                remaining = length
                while remaining > 0:
                    run_start, run_len = self._log_take(remaining)
                    displaced = inode.extent_map.insert(Extent(pos, run_start, run_len))
                    for old in displaced:
                        self.free_space.free(old.disk_offset, old.length)
                    ranges.append((run_start, run_len))
                    pos += run_len
                    remaining -= run_len
                now = self.scheduler.submit(
                    IoOp.WRITE, split_ranges(ranges), now, "gc"
                ).finish_time
        self._meta_dirty = True
        return now

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
