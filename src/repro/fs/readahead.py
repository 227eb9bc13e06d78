"""Sequential-read detection and the 128 KiB readahead window.

Mirrors the Linux on-demand readahead behaviour the paper depends on twice:

- buffered sequential reads are fetched in readahead-window chunks, so even
  a 32 KiB-per-call ``grep`` produces 128 KiB device requests — one per
  window, with the intermediate calls served from the page cache
  (Section 5.4), and
- FragPicker's analysis phase *imitates* this logic because it observes
  syscalls above the VFS, where readahead has not happened yet
  (Section 4.1.1/4.1.2).
"""

from __future__ import annotations

from typing import NamedTuple

from ..constants import READAHEAD_SIZE, block_align_down, block_align_up
from ..types import Record


class ReadPlan(NamedTuple):
    """Block-aligned fetch decision for one buffered read.

    The fetch range always covers the requested bytes; pages already
    resident are filtered out by the page-cache probe, so a read inside a
    previously fetched window costs no device I/O.
    """

    fetch_start: int
    fetch_end: int
    sequential: bool

    @property
    def length(self) -> int:
        return self.fetch_end - self.fetch_start


class ReadaheadState(Record):
    """Per-open-file sequential detector and readahead window."""

    __slots__ = _fields = ("window_size", "_next_expected", "_window_end")

    def __init__(self, window_size: int = READAHEAD_SIZE, _next_expected: int = -1,
                 _window_end: int = 0) -> None:
        self.window_size = window_size
        self._next_expected = _next_expected
        self._window_end = _window_end

    def is_sequential(self, offset: int) -> bool:
        return offset == self._next_expected or (self._next_expected < 0 and offset == 0)

    def plan(self, offset: int, length: int, file_size: int) -> ReadPlan:
        """Decide what to fetch for a buffered read of ``[offset, offset+length)``.

        Sequential streams extend the window a full ``window_size`` past the
        point the stream has reached; random reads fetch only the aligned
        requested range and reset the window.
        """
        sequential = self.is_sequential(offset)
        req_start = block_align_down(offset)
        req_end = block_align_up(offset + length)
        if sequential and req_end > self._window_end:
            fetch_end = max(req_end, max(req_start, self._window_end) + self.window_size)
            self._window_end = fetch_end
        elif sequential:
            fetch_end = req_end  # inside the window: page-cache territory
        else:
            fetch_end = req_end
            self._window_end = req_end
        if file_size > 0:
            fetch_end = min(fetch_end, block_align_up(file_size))
        fetch_end = max(fetch_end, req_start)
        self._next_expected = offset + length
        # tuple.__new__ skips the generated keyword-parsing __new__ (one
        # plan per buffered read)
        return tuple.__new__(ReadPlan, (req_start, fetch_end, sequential))
