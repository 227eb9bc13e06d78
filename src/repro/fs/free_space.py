"""Device free-space management.

A sorted run list with first-fit / goal / best-effort-contiguous
allocation.  Free-space fragmentation — the reason aged filesystems give
new files discontiguous blocks — emerges naturally from churn, and the
aging workload relies on it.

Indexing: alongside the address-sorted ``(start, length)`` arrays the
manager maintains a *size-bucketed* index — one address-sorted bucket per
``length.bit_length()`` class — so ``alloc_contiguous`` resolves its
first-fit-at-or-after-goal search with a handful of bisects instead of a
linear scan over every run.  ``free_bytes`` is a running counter and
``stats()``/``runs()`` are cached until the next mutation.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..constants import BLOCK_SIZE
from ..errors import InvalidArgument, NoSpaceError

Run = Tuple[int, int]  # (start, length), byte units, block aligned


class FreeSpaceStats(NamedTuple):
    free_bytes: int
    run_count: int
    largest_run: int


class FreeSpaceManager:
    """Sorted list of free runs over ``[region_start, region_end)``."""

    __slots__ = (
        "region_start", "region_end", "_starts", "_lengths",
        "_free_bytes", "_buckets", "_runs_cache", "_stats_cache",
    )

    def __init__(self, region_start: int, region_end: int) -> None:
        if region_start % BLOCK_SIZE or region_end % BLOCK_SIZE:
            raise InvalidArgument("region bounds must be block aligned")
        if region_end <= region_start:
            raise InvalidArgument("empty free-space region")
        self.region_start = region_start
        self.region_end = region_end
        self._starts: List[int] = [region_start]
        self._lengths: List[int] = [region_end - region_start]
        self._free_bytes = region_end - region_start
        #: size index: length.bit_length() -> address-sorted (start, length)
        self._buckets: Dict[int, List[Run]] = {}
        self._runs_cache: Optional[Tuple[Run, ...]] = None
        self._stats_cache: Optional[FreeSpaceStats] = None
        self._bucket_add(region_start, region_end - region_start)

    def __deepcopy__(self, memo) -> "FreeSpaceManager":
        # runs are immutable tuples and the caches immutable values: fresh
        # lists sharing them are an exact, independent copy (a generic
        # deepcopy rebuilds every run, which dominates cloning a volume
        # full of punched holes)
        clone = FreeSpaceManager.__new__(FreeSpaceManager)
        clone.region_start = self.region_start
        clone.region_end = self.region_end
        clone._starts = list(self._starts)
        clone._lengths = list(self._lengths)
        clone._free_bytes = self._free_bytes
        clone._buckets = {key: list(bucket) for key, bucket in self._buckets.items()}
        clone._runs_cache = self._runs_cache
        clone._stats_cache = self._stats_cache
        memo[id(self)] = clone
        return clone

    # -- queries ---------------------------------------------------------

    @property
    def free_bytes(self) -> int:
        return self._free_bytes

    def runs(self) -> Tuple[Run, ...]:
        """All free runs in address order (cached; immutable tuple)."""
        cached = self._runs_cache
        if cached is None:
            cached = self._runs_cache = tuple(zip(self._starts, self._lengths))
        return cached

    def stats(self) -> FreeSpaceStats:
        cached = self._stats_cache
        if cached is None:
            cached = self._stats_cache = FreeSpaceStats(
                free_bytes=self._free_bytes,
                run_count=len(self._starts),
                largest_run=self.largest_run(),
            )
        return cached

    def largest_run(self) -> int:
        buckets = self._buckets
        if not buckets:
            return 0
        return max(length for _, length in buckets[max(buckets)])

    # -- allocation ------------------------------------------------------

    def alloc_contiguous(self, length: int, goal: Optional[int] = None) -> int:
        """Allocate one contiguous run of ``length`` bytes; returns start.

        Tries first-fit *at or after* ``goal`` (allocating mid-run when the
        goal falls inside a free run), then wraps around.  Raises
        :class:`NoSpaceError` when no single run is large enough.
        """
        self._check(length)
        return self._alloc_contiguous(length, goal)

    def _alloc_contiguous(self, length: int, goal: Optional[int]) -> int:
        starts = self._starts
        count = len(starts)
        if goal is not None and count:
            lengths = self._lengths
            pivot = bisect_left(starts, goal)
            if pivot > 0 and starts[pivot - 1] + lengths[pivot - 1] > goal:
                pivot -= 1  # goal falls inside the previous run
            if pivot < count:
                pivot_start = starts[pivot]
                pivot_len = lengths[pivot]
                if pivot_start < goal < pivot_start + pivot_len:
                    # the goal sits inside this run: honour it exactly
                    if pivot_start + pivot_len - goal >= length:
                        self._alloc_at(goal, length)
                        return goal
                    # tail too small; the run stays eligible from its
                    # start when the search wraps back around
                    if pivot_len >= length and count == 1:
                        return self._take(pivot, length)
                    found = self._first_fit(length, pivot_start + 1, self.region_end)
                    if found < 0:
                        found = self._first_fit(length, 0, pivot_start)
                    if found >= 0:
                        return self._take(bisect_left(starts, found), length)
                    # wrap-around retry for the pivot run we skipped above
                    if pivot_len >= length:
                        return self._take(pivot, length)
                else:
                    found = self._first_fit(length, pivot_start, self.region_end)
                    if found < 0:
                        found = self._first_fit(length, 0, pivot_start)
                    if found >= 0:
                        return self._take(bisect_left(starts, found), length)
                raise NoSpaceError(
                    f"no contiguous run of {length} bytes "
                    f"(largest {self.largest_run()})"
                )
        found = self._first_fit(length, 0, self.region_end)
        if found >= 0:
            return self._take(bisect_left(starts, found), length)
        raise NoSpaceError(
            f"no contiguous run of {length} bytes (largest {self.largest_run()})"
        )

    def alloc(self, length: int, goal: Optional[int] = None) -> List[Run]:
        """Allocate ``length`` bytes, contiguous if possible.

        Falls back to stitching together multiple runs in *address order*
        from the goal (the way ext4 scans block groups) when no single run
        fits — this is how writing into fragmented free space yields a
        fragmented file whose pieces are hole-sized.
        """
        self._check(length)
        if self._free_bytes < length:
            raise NoSpaceError(f"only {self._free_bytes} bytes free, need {length}")
        try:
            start = self._alloc_contiguous(length, goal)
            return [(start, length)]
        except NoSpaceError:
            pass
        pieces: List[Run] = []
        remaining = length
        pivot = goal if goal is not None else self.region_start
        starts = self._starts
        while remaining > 0:
            idx = bisect_left(starts, pivot)
            if idx >= len(starts):
                idx = 0  # wrap around
            take = min(self._lengths[idx], remaining)
            start = self._take(idx, take)
            pieces.append((start, take))
            pivot = start + take
            remaining -= take
        pieces.sort()
        return pieces

    def alloc_at(self, start: int, length: int) -> None:
        """Claim an exact range (used to replay known layouts).

        Raises :class:`NoSpaceError` if any part is already allocated.
        """
        self._check(length)
        self._alloc_at(start, length)

    def _alloc_at(self, start: int, length: int) -> None:
        starts = self._starts
        lengths = self._lengths
        idx = bisect_right(starts, start) - 1
        if idx < 0:
            raise NoSpaceError(f"range at {start} not free")
        run_start, run_len = starts[idx], lengths[idx]
        if start < run_start or start + length > run_start + run_len:
            raise NoSpaceError(f"range [{start}, {start + length}) not free")
        # split the run around the claimed range
        self._bucket_remove(run_start, run_len)
        head = start - run_start
        tail = (run_start + run_len) - (start + length)
        if head > 0 and tail > 0:
            lengths[idx] = head
            starts.insert(idx + 1, start + length)
            lengths.insert(idx + 1, tail)
            self._bucket_add(run_start, head)
            self._bucket_add(start + length, tail)
        elif head > 0:
            lengths[idx] = head
            self._bucket_add(run_start, head)
        elif tail > 0:
            starts[idx] = start + length
            lengths[idx] = tail
            self._bucket_add(start + length, tail)
        else:
            del starts[idx]
            del lengths[idx]
        self._free_bytes -= length
        self._runs_cache = self._stats_cache = None

    # -- release ---------------------------------------------------------

    def free(self, start: int, length: int) -> None:
        """Return a range to the pool, coalescing with neighbours."""
        self._check(length)
        if start < self.region_start or start + length > self.region_end:
            raise InvalidArgument(f"free outside region: [{start}, {start + length})")
        starts = self._starts
        lengths = self._lengths
        idx = bisect_left(starts, start)
        # guard against double free / overlap (always on: a state
        # corruption check, not argument validation)
        if idx > 0:
            prev_end = starts[idx - 1] + lengths[idx - 1]
            if prev_end > start:
                raise InvalidArgument(f"double free at {start}")
        if idx < len(starts) and start + length > starts[idx]:
            raise InvalidArgument(f"double free at {start}")
        new_start, new_len = start, length
        # coalesce with next
        if idx < len(starts) and start + length == starts[idx]:
            self._bucket_remove(starts[idx], lengths[idx])
            new_len += lengths[idx]
            del starts[idx]
            del lengths[idx]
        # coalesce with previous
        if idx > 0 and starts[idx - 1] + lengths[idx - 1] == start:
            idx -= 1
            self._bucket_remove(starts[idx], lengths[idx])
            new_start = starts[idx]
            new_len += lengths[idx]
            starts[idx] = new_start
            lengths[idx] = new_len
        else:
            starts.insert(idx, new_start)
            lengths.insert(idx, new_len)
        self._bucket_add(new_start, new_len)
        self._free_bytes += length
        self._runs_cache = self._stats_cache = None

    # -- internals -------------------------------------------------------

    def _take(self, idx: int, length: int) -> int:
        start = self._starts[idx]
        run_len = self._lengths[idx]
        self._bucket_remove(start, run_len)
        if run_len == length:
            del self._starts[idx]
            del self._lengths[idx]
        else:
            self._starts[idx] = start + length
            self._lengths[idx] = run_len - length
            self._bucket_add(start + length, run_len - length)
        self._free_bytes -= length
        self._runs_cache = self._stats_cache = None
        return start

    def _bucket_add(self, start: int, length: int) -> None:
        key = length.bit_length()
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = [(start, length)]
        else:
            insort(bucket, (start, length))

    def _bucket_remove(self, start: int, length: int) -> None:
        key = length.bit_length()
        bucket = self._buckets[key]
        if len(bucket) == 1:
            del self._buckets[key]
        else:
            del bucket[bisect_left(bucket, (start, length))]

    def _first_fit(self, length: int, lo_addr: int, hi_addr: int) -> int:
        """Start of the lowest-addressed free run with ``start`` in
        ``[lo_addr, hi_addr)`` and ``run length >= length``; -1 if none.

        Runs whose ``bit_length`` class exceeds the request's always fit,
        so each such bucket costs one bisect; only the request's own size
        class needs per-entry length filtering.
        """
        want = length.bit_length()
        best = -1
        probe = (lo_addr, 0)
        for key, bucket in self._buckets.items():
            if key < want:
                continue
            i = bisect_left(bucket, probe)
            if key == want:
                while i < len(bucket):
                    run_start, run_len = bucket[i]
                    if run_start >= hi_addr or (best >= 0 and run_start >= best):
                        break
                    if run_len >= length:
                        best = run_start
                        break
                    i += 1
            elif i < len(bucket):
                run_start = bucket[i][0]
                if run_start < hi_addr and (best < 0 or run_start < best):
                    best = run_start
        return best

    @staticmethod
    def _check(length: int) -> None:
        if length <= 0 or length % BLOCK_SIZE:
            raise InvalidArgument(f"bad allocation length {length}")

    def check_invariants(self) -> None:
        """Raise AssertionError on violated internal invariants."""
        prev_end = None
        total = 0
        for start, length in zip(self._starts, self._lengths):
            assert length > 0
            assert start >= self.region_start
            assert start + length <= self.region_end
            if prev_end is not None:
                assert start > prev_end, "runs not coalesced or overlapping"
            prev_end = start + length
            total += length
        assert total == self._free_bytes, "free-byte counter out of sync"
        indexed = sorted(
            run for bucket in self._buckets.values() for run in bucket
        )
        assert indexed == sorted(
            zip(self._starts, self._lengths)
        ), "size buckets out of sync with run list"
        for key, bucket in self._buckets.items():
            assert bucket, "empty bucket left behind"
            assert bucket == sorted(bucket), "bucket not address sorted"
            for _, length in bucket:
                assert length.bit_length() == key, "run in wrong size bucket"
