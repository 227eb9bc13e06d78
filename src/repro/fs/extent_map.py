"""Per-inode extent maps: file offset -> device offset.

The extent map is the source of truth both for request splitting (a
syscall's byte range maps to as many disk ranges as it crosses extent
pieces) and for FIEMAP-based fragmentation checking.  All offsets and
lengths are byte values aligned to ``BLOCK_SIZE``.

Hot-path layout: :class:`Extent` is a ``NamedTuple`` (constructed per
split piece on every punch/insert) and interior alignment validation is
gated behind the module-level :data:`DEBUG_CHECKS` flag — offsets and
lengths are validated once at the syscall boundary, and the deep
``check_invariants()`` pass backs the property tests.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, List, NamedTuple, Optional, Tuple

from ..constants import BLOCK_SIZE, MAX_REQUEST_SIZE
from ..errors import InvalidArgument

#: Enable interior argument validation on every punch/insert.  Off by
#: default: callers validate at the syscall boundary.  Property tests and
#: debugging sessions flip this on.
DEBUG_CHECKS = False


class Extent(NamedTuple):
    """One contiguous mapping: ``length`` bytes of file data at
    ``file_offset`` living at device offset ``disk_offset``.

    A ``NamedTuple`` rather than a dataclass: extents are re-created for
    every split piece on the punch/insert hot path and the tuple
    constructor is about twice as fast.  Use :meth:`validate` to check
    alignment invariants explicitly.
    """

    file_offset: int
    disk_offset: int
    length: int

    def validate(self) -> "Extent":
        for value, name in (
            (self.file_offset, "file_offset"),
            (self.disk_offset, "disk_offset"),
            (self.length, "length"),
        ):
            if value % BLOCK_SIZE != 0:
                raise InvalidArgument(f"extent {name}={value} not block aligned")
        if self.length <= 0:
            raise InvalidArgument("extent length must be positive")
        if self.file_offset < 0 or self.disk_offset < 0:
            raise InvalidArgument("extent offsets must be non-negative")
        return self

    @property
    def file_end(self) -> int:
        return self.file_offset + self.length

    @property
    def disk_end(self) -> int:
        return self.disk_offset + self.length

    def disk_at(self, file_offset: int) -> int:
        """Device offset backing ``file_offset`` (must lie inside)."""
        if not (self.file_offset <= file_offset < self.file_offset + self.length):
            raise InvalidArgument(f"{file_offset} outside {self}")
        return self.disk_offset + (file_offset - self.file_offset)


#: One piece of a mapped range: (disk_offset or None for a hole, length).
MappedPiece = Tuple[Optional[int], int]


class ExtentMap:
    """Sorted, non-overlapping extents with hole support."""

    __slots__ = ("_extents", "_starts", "_joints")

    def __init__(self) -> None:
        self._extents: List[Extent] = []
        self._starts: List[int] = []
        #: count of consecutive extent pairs that are contiguous in both
        #: file and disk space ("joints"); fragment_count is then O(1) as
        #: ``len(extents) - joints``.  Only :meth:`punch` moves it —
        #: :meth:`insert` cannot change it: a non-merged insertion has no
        #: joints to its neighbours (they would have been merged), and a
        #: merge absorbs exactly the joint it consumed.
        self._joints = 0

    def __deepcopy__(self, memo) -> "ExtentMap":
        # Extent is an immutable NamedTuple: fresh lists sharing the
        # tuples are an exact, independent copy (a generic deepcopy would
        # rebuild every tuple, which dominates cloning a fragmented file)
        clone = ExtentMap.__new__(ExtentMap)
        clone._extents = list(self._extents)
        clone._starts = list(self._starts)
        clone._joints = self._joints
        memo[id(self)] = clone
        return clone

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._extents)

    def __iter__(self) -> Iterator[Extent]:
        return iter(self._extents)

    def extents(self) -> List[Extent]:
        return list(self._extents)

    @property
    def mapped_bytes(self) -> int:
        return sum(e.length for e in self._extents)

    def fragment_count(self) -> int:
        """Number of physically discontiguous pieces (filefrag's count).

        Adjacent extents that are also adjacent on disk count as one
        fragment, mirroring how filefrag reports merged extents.  O(1):
        the joint count is maintained incrementally by the mutators.
        """
        count = len(self._extents)
        return count - self._joints if count else 0

    def _index_for(self, file_offset: int) -> int:
        """Index of the first extent whose end is after ``file_offset``."""
        idx = bisect_right(self._starts, file_offset) - 1
        if idx >= 0 and self._extents[idx].file_end > file_offset:
            return idx
        return idx + 1

    def map_range(self, offset: int, length: int) -> List[MappedPiece]:
        """Resolve ``[offset, offset+length)`` to disk pieces and holes."""
        if length <= 0:
            return []
        pieces: List[MappedPiece] = []
        append = pieces.append
        pos = offset
        end = offset + length
        extents = self._extents
        count = len(extents)
        idx = self._index_for(offset)
        while pos < end:
            if idx >= count:
                append((None, end - pos))
                break
            file_offset, disk_offset, ext_len = extents[idx]
            if file_offset > pos:
                gap_end = file_offset if file_offset < end else end
                append((None, gap_end - pos))
                pos = gap_end
                continue
            file_end = file_offset + ext_len
            take_end = file_end if file_end < end else end
            append((disk_offset + (pos - file_offset), take_end - pos))
            pos = take_end
            idx += 1
        return pieces

    def commands(self, spans: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
        """The ``(disk_offset, length)`` device commands of a read of the
        file spans ``spans`` (``(file_offset, length)`` pairs, in order).

        Equal to :func:`~repro.block.splitter.split_ranges` over the
        concatenated :meth:`disk_ranges` of the spans, built in one walk
        over the extents: holes are skipped, disk-adjacent pieces merge
        across holes and across span boundaries, and each merged run is
        capped at ``MAX_REQUEST_SIZE`` from its (clipped) start.
        """
        commands: List[Tuple[int, int]] = []
        append = commands.append
        extents = self._extents
        starts = self._starts
        count = len(extents)
        cap = MAX_REQUEST_SIZE
        cur_offset = cur_length = 0
        for offset, length in spans:
            if length <= 0:
                continue
            end = offset + length
            idx = bisect_right(starts, offset) - 1
            if idx < 0 or extents[idx][0] + extents[idx][2] <= offset:
                idx += 1
            while idx < count:
                file_offset, disk_offset, ext_len = extents[idx]
                if file_offset >= end:
                    break
                idx += 1
                file_end = file_offset + ext_len
                if file_offset < offset:
                    disk_offset += offset - file_offset
                    file_offset = offset
                piece = (file_end if file_end < end else end) - file_offset
                if cur_length and cur_offset + cur_length == disk_offset:
                    cur_length += piece
                    continue
                if cur_length:
                    while cur_length > cap:
                        append((cur_offset, cap))
                        cur_offset += cap
                        cur_length -= cap
                    append((cur_offset, cur_length))
                cur_offset = disk_offset
                cur_length = piece
        if cur_length:
            while cur_length > cap:
                append((cur_offset, cap))
                cur_offset += cap
                cur_length -= cap
            append((cur_offset, cur_length))
        return commands

    def disk_ranges(self, offset: int, length: int) -> List[Tuple[int, int]]:
        """Like :meth:`map_range` but holes removed."""
        return [(d, l) for d, l in self.map_range(offset, length) if d is not None]

    def is_fully_mapped(self, offset: int, length: int) -> bool:
        return all(d is not None for d, _ in self.map_range(offset, length))

    def holes(self, offset: int, length: int) -> List[Tuple[int, int]]:
        """Unmapped (file_offset, length) sub-ranges of the given range."""
        out = []
        pos = offset
        for disk, piece_len in self.map_range(offset, length):
            if disk is None:
                out.append((pos, piece_len))
            pos += piece_len
        return out

    # -- mutation --------------------------------------------------------

    def punch(self, offset: int, length: int) -> List[Extent]:
        """Remove mappings over ``[offset, offset+length)``.

        Returns the removed disk pieces so the caller can free the blocks.
        Extents straddling the boundary are split.  O(log n + k) for k
        affected extents.
        """
        if DEBUG_CHECKS:
            self._check_aligned(offset, length)
        if length <= 0:
            return []
        end = offset + length
        extents = self._extents
        count = len(extents)
        first = self._index_for(offset)
        removed: List[Extent] = []
        kept_edges: List[Extent] = []
        last = first
        while last < count and extents[last].file_offset < end:
            file_offset, disk_offset, ext_len = extents[last]
            file_end = file_offset + ext_len
            cut_start = file_offset if file_offset > offset else offset
            cut_end = file_end if file_end < end else end
            if file_offset < cut_start:
                kept_edges.append(
                    Extent(file_offset, disk_offset, cut_start - file_offset)
                )
            removed.append(
                Extent(cut_start, disk_offset + (cut_start - file_offset),
                       cut_end - cut_start)
            )
            if cut_end < file_end:
                kept_edges.append(
                    Extent(cut_end, disk_offset + (cut_end - file_offset),
                           file_end - cut_end)
                )
            last += 1
        if removed:
            # Joint accounting: only pairs touching the replaced slice
            # [first, last) can change.  Count them before and after.
            old_joints = 0
            for i in range(first if first > 0 else 1, last + 1 if last < count else last):
                af, ad, al = extents[i - 1]
                bf, bd, _ = extents[i]
                if af + al == bf and ad + al == bd:
                    old_joints += 1
            prev_extent = extents[first - 1] if first > 0 else None
            next_extent = extents[last] if last < count else None
            new_joints = 0
            if kept_edges:
                # kept edges are separated by the punched hole, so only
                # the two outer boundary pairs can possibly be joints
                if prev_extent is not None:
                    af, ad, al = prev_extent
                    bf, bd, _ = kept_edges[0]
                    if af + al == bf and ad + al == bd:
                        new_joints += 1
                if next_extent is not None:
                    af, ad, al = kept_edges[-1]
                    bf, bd, _ = next_extent
                    if af + al == bf and ad + al == bd:
                        new_joints += 1
            elif prev_extent is not None and next_extent is not None:
                af, ad, al = prev_extent
                bf, bd, _ = next_extent
                if af + al == bf and ad + al == bd:
                    new_joints += 1
            self._joints += new_joints - old_joints
            self._extents[first:last] = kept_edges
            self._starts[first:last] = [e.file_offset for e in kept_edges]
        return removed

    def insert(self, extent: Extent) -> List[Extent]:
        """Map a new extent, replacing anything it overlaps.

        Returns the displaced disk pieces (the caller frees those blocks —
        this is how out-of-place filesystems retire old copies).  Merges
        with physically contiguous neighbours.
        """
        if DEBUG_CHECKS:
            extent.validate()
        displaced = self.punch(extent.file_offset, extent.length)
        extents = self._extents
        starts = self._starts
        file_offset, disk_offset, length = extent
        idx = bisect_left(starts, file_offset)
        # coalesce with the previous neighbour
        if idx > 0:
            prev_file, prev_disk, prev_len = extents[idx - 1]
            if (prev_file + prev_len == file_offset
                    and prev_disk + prev_len == disk_offset):
                file_offset, disk_offset = prev_file, prev_disk
                length += prev_len
                idx -= 1
                del extents[idx]
                del starts[idx]
        # coalesce with the next neighbour
        if idx < len(extents):
            next_file, next_disk, next_len = extents[idx]
            if (file_offset + length == next_file
                    and disk_offset + length == next_disk):
                length += next_len
                del extents[idx]
                del starts[idx]
        # positional tuple.__new__ skips the generated keyword-parsing
        # __new__ (one extent per insert on the write path)
        extents.insert(idx, tuple.__new__(Extent, (file_offset, disk_offset, length)))
        starts.insert(idx, file_offset)
        return displaced

    def preceding(self, file_offset: int) -> Optional[Extent]:
        """The last extent ending at or before ``file_offset`` (O(log n))."""
        idx = bisect_right(self._starts, file_offset) - 1
        if idx >= 0 and self._extents[idx].file_end <= file_offset:
            return self._extents[idx]
        idx -= 1
        return self._extents[idx] if idx >= 0 else None

    @staticmethod
    def _check_aligned(offset: int, length: int) -> None:
        if offset % BLOCK_SIZE or length % BLOCK_SIZE:
            raise InvalidArgument(
                f"unaligned extent operation offset={offset} length={length}"
            )

    # -- invariants (used by property tests) ------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError when internal invariants are violated."""
        prev_end = -1
        joints = 0
        prev_extent = None
        for extent in self._extents:
            extent.validate()
            assert extent.file_offset >= prev_end, "extents overlap or unsorted"
            if (prev_extent is not None
                    and prev_extent.file_end == extent.file_offset
                    and prev_extent.disk_end == extent.disk_offset):
                joints += 1
            prev_end = extent.file_end
            prev_extent = extent
        assert self._starts == [e.file_offset for e in self._extents]
        assert joints == self._joints, "incremental joint count out of sync"
