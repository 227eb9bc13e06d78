"""FragPicker's analysis phase (Section 4.1).

Pipeline per file:

1. **System call monitoring** — done by :class:`repro.trace.SyscallMonitor`;
   this module consumes the :class:`~repro.fs.base.SyscallEvent` stream it
   keeps.
2. **Readahead imitation** — the monitor sits above the VFS, so buffered
   sequential reads appear at their syscall size (e.g. grep's 32 KiB) even
   though the kernel will fetch 128 KiB windows.  The analysis expands
   detected sequential buffered reads to the readahead size and drops
   subsequent reads that fall inside the expanded window (those are page
   cache hits).
3. **Block alignment** — start/end offsets are aligned to filesystem
   blocks, which is also what makes the later punch-hole deallocation safe
   (no partial-block zeroing, Section 4.2.2).
4. **Algorithm 1 merge** — overlapped/adjacent ranges coalesce with I/O
   counts accumulating into a hotness score.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..constants import READAHEAD_SIZE, block_align_down, block_align_up
from ..fs.base import Filesystem, SyscallEvent
from ..types import Record
from .range_list import FileRange, FileRangeList, merge_overlapped


class _SequentialState(Record):
    """Per-file replica of the kernel's readahead state machine."""

    __slots__ = _fields = ("next_expected", "window_end")

    def __init__(self, next_expected: int = -1, window_end: int = -1) -> None:
        self.next_expected = next_expected
        self.window_end = window_end


class AnalysisPhase(Record):
    """Configuration for turning a trace into file range lists."""

    __slots__ = _fields = ("imitate_readahead", "merge")

    def __init__(self, imitate_readahead: bool = True, merge: bool = True) -> None:
        self.imitate_readahead = imitate_readahead
        self.merge = merge  # ablation: disable Algorithm 1

    def run(
        self,
        fs: Filesystem,
        records: Iterable[SyscallEvent],
        inodes: Optional[Iterable[int]] = None,
    ) -> Dict[int, FileRangeList]:
        """Build the per-file range lists from a syscall trace.

        ``inodes`` restricts analysis to specific files (FragPicker can
        target particular applications/files); records for inodes that no
        longer exist are dropped.
        """
        wanted = set(inodes) if inodes is not None else None
        per_file: Dict[int, List[FileRange]] = {}
        seq_state: Dict[int, _SequentialState] = {}
        for record in records:
            if wanted is not None and record.ino not in wanted:
                continue
            if record.ino not in fs.inodes:
                continue  # unlinked since tracing
            expanded = self._expand(record, seq_state.setdefault(record.ino, _SequentialState()))
            if expanded is None:
                continue
            start, end = expanded
            file_end = block_align_up(fs.inodes[record.ino].size)
            start = max(0, block_align_down(start))
            end = min(block_align_up(end), file_end)
            if end <= start:
                continue
            per_file.setdefault(record.ino, []).append(FileRange(start, end, 1))
        out: Dict[int, FileRangeList] = {}
        for ino, ranges in per_file.items():
            merged = merge_overlapped(ranges) if self.merge else sorted(
                ranges, key=lambda r: (r.start, r.end)
            )
            out[ino] = FileRangeList(ino=ino, path=fs.inodes[ino].path, ranges=merged)
        return out

    # -- readahead imitation -------------------------------------------------

    def _expand(self, record: SyscallEvent, state: _SequentialState):
        """Apply the paper's buffered-sequential-read handling.

        Returns the (possibly expanded) byte range, or ``None`` when the
        read falls inside the previously expanded window (page cache hit —
        it never reaches storage, so migrating for it is pointless... it is
        already covered by the window entry anyway).
        """
        end = record.offset + record.size
        if not (
            self.imitate_readahead
            and record.op == "read"
            and not record.o_direct
        ):
            return record.offset, end
        sequential = record.offset == state.next_expected or (
            state.next_expected < 0 and record.offset == 0
        )
        state.next_expected = end
        if not sequential:
            state.window_end = end
            return record.offset, end
        if 0 <= end <= state.window_end:
            return None  # served by the page cache
        expanded_end = max(end, record.offset + READAHEAD_SIZE)
        state.window_end = expanded_end
        return record.offset, expanded_end
