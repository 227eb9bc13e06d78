"""Differential property tests for the indexed hot-path structures.

The optimized :class:`ExtentMap` (bisect-maintained start index) and
:class:`FreeSpaceManager` (size-bucketed free-run index, running
free-byte counter, cached ``runs()``/``stats()``) are driven through
thousands of seeded randomized operations next to deliberately naive
reference implementations that use nothing but linear scans.  Every
observable — return values, raised error types *and messages*, and the
full post-operation state — must match exactly, and the optimized
structures' ``check_invariants()`` must hold throughout.
"""

import random

import pytest

from repro.constants import BLOCK_SIZE
from repro.errors import InvalidArgument, NoSpaceError
from repro.fs.extent_map import Extent, ExtentMap
from repro.fs.free_space import FreeSpaceManager

BLOCK = BLOCK_SIZE


# ---------------------------------------------------------------------------
# naive references (linear scans, recompute-everything)
# ---------------------------------------------------------------------------


class NaiveExtentMap:
    """Reference extent map: a sorted list, all operations O(n)."""

    def __init__(self):
        self.ext = []

    def extents(self):
        return list(self.ext)

    def fragment_count(self):
        count = 0
        prev_file_end = prev_disk_end = -1
        for e in self.ext:
            if e.file_offset != prev_file_end or e.disk_offset != prev_disk_end:
                count += 1
            prev_file_end = e.file_end
            prev_disk_end = e.disk_end
        return count

    def map_range(self, offset, length):
        if length <= 0:
            return []
        pieces = []
        pos, end = offset, offset + length
        for e in self.ext:
            if e.file_end <= pos or e.file_offset >= end:
                continue
            if e.file_offset > pos:
                pieces.append((None, e.file_offset - pos))
                pos = e.file_offset
            take_end = min(e.file_end, end)
            pieces.append((e.disk_offset + (pos - e.file_offset), take_end - pos))
            pos = take_end
        if pos < end:
            pieces.append((None, end - pos))
        return pieces

    def punch(self, offset, length):
        if length <= 0:
            return []
        end = offset + length
        removed, kept = [], []
        for e in self.ext:
            if e.file_end <= offset or e.file_offset >= end:
                kept.append(e)
                continue
            cut_start = max(e.file_offset, offset)
            cut_end = min(e.file_end, end)
            if e.file_offset < cut_start:
                kept.append(Extent(e.file_offset, e.disk_offset,
                                   cut_start - e.file_offset))
            removed.append(Extent(cut_start,
                                  e.disk_offset + (cut_start - e.file_offset),
                                  cut_end - cut_start))
            if cut_end < e.file_end:
                kept.append(Extent(cut_end,
                                   e.disk_offset + (cut_end - e.file_offset),
                                   e.file_end - cut_end))
        self.ext = sorted(kept)
        return removed

    def insert(self, extent):
        displaced = self.punch(extent.file_offset, extent.length)
        merged = []
        for e in sorted(self.ext + [extent]):
            if (merged and merged[-1].file_end == e.file_offset
                    and merged[-1].disk_end == e.disk_offset):
                last = merged.pop()
                merged.append(Extent(last.file_offset, last.disk_offset,
                                     last.length + e.length))
            else:
                merged.append(e)
        self.ext = merged
        return displaced


class NaiveFreeSpace:
    """Reference free-space manager: one flat run list, linear first-fit."""

    def __init__(self, region_start, region_end):
        self.region_start = region_start
        self.region_end = region_end
        self.runs_list = [(region_start, region_end - region_start)]

    # -- queries --

    def runs(self):
        return tuple(self.runs_list)

    def free_bytes(self):
        return sum(length for _, length in self.runs_list)

    def largest_run(self):
        return max((length for _, length in self.runs_list), default=0)

    # -- allocation --

    @staticmethod
    def _check(length):
        if length <= 0 or length % BLOCK_SIZE:
            raise InvalidArgument(f"bad allocation length {length}")

    def _first_fit(self, length, lo_addr, hi_addr):
        for start, run_len in self.runs_list:
            if lo_addr <= start < hi_addr and run_len >= length:
                return start
        return -1

    def _index_of(self, start):
        return [s for s, _ in self.runs_list].index(start)

    def _take(self, idx, length):
        start, run_len = self.runs_list[idx]
        if run_len == length:
            del self.runs_list[idx]
        else:
            self.runs_list[idx] = (start + length, run_len - length)
        return start

    def alloc_contiguous(self, length, goal=None):
        self._check(length)
        runs = self.runs_list
        count = len(runs)
        if goal is not None and count:
            pivot = 0
            while pivot < count and runs[pivot][0] < goal:
                pivot += 1
            if pivot > 0 and runs[pivot - 1][0] + runs[pivot - 1][1] > goal:
                pivot -= 1
            if pivot < count:
                pivot_start, pivot_len = runs[pivot]
                if pivot_start < goal < pivot_start + pivot_len:
                    if pivot_start + pivot_len - goal >= length:
                        self.alloc_at(goal, length)
                        return goal
                    if pivot_len >= length and count == 1:
                        return self._take(pivot, length)
                    found = self._first_fit(length, pivot_start + 1, self.region_end)
                    if found < 0:
                        found = self._first_fit(length, 0, pivot_start)
                    if found >= 0:
                        return self._take(self._index_of(found), length)
                    if pivot_len >= length:
                        return self._take(pivot, length)
                else:
                    found = self._first_fit(length, pivot_start, self.region_end)
                    if found < 0:
                        found = self._first_fit(length, 0, pivot_start)
                    if found >= 0:
                        return self._take(self._index_of(found), length)
                raise NoSpaceError(
                    f"no contiguous run of {length} bytes "
                    f"(largest {self.largest_run()})"
                )
        found = self._first_fit(length, 0, self.region_end)
        if found >= 0:
            return self._take(self._index_of(found), length)
        raise NoSpaceError(
            f"no contiguous run of {length} bytes (largest {self.largest_run()})"
        )

    def alloc(self, length, goal=None):
        self._check(length)
        if self.free_bytes() < length:
            raise NoSpaceError(
                f"only {self.free_bytes()} bytes free, need {length}"
            )
        try:
            start = self.alloc_contiguous(length, goal)
            return [(start, length)]
        except NoSpaceError:
            pass
        pieces = []
        remaining = length
        pivot = goal if goal is not None else self.region_start
        while remaining > 0:
            idx = next((i for i, (s, _) in enumerate(self.runs_list)
                        if s >= pivot), None)
            if idx is None:
                idx = 0
            take = min(self.runs_list[idx][1], remaining)
            start = self._take(idx, take)
            pieces.append((start, take))
            pivot = start + take
            remaining -= take
        pieces.sort()
        return pieces

    def alloc_at(self, start, length):
        self._check(length)
        idx = -1
        for i, (run_start, _) in enumerate(self.runs_list):
            if run_start <= start:
                idx = i
            else:
                break
        if idx < 0:
            raise NoSpaceError(f"range at {start} not free")
        run_start, run_len = self.runs_list[idx]
        if start < run_start or start + length > run_start + run_len:
            raise NoSpaceError(f"range [{start}, {start + length}) not free")
        replacement = []
        if start > run_start:
            replacement.append((run_start, start - run_start))
        if run_start + run_len > start + length:
            replacement.append((start + length,
                                run_start + run_len - (start + length)))
        self.runs_list[idx:idx + 1] = replacement

    def free(self, start, length):
        self._check(length)
        if start < self.region_start or start + length > self.region_end:
            raise InvalidArgument(f"free outside region: [{start}, {start + length})")
        for run_start, run_len in self.runs_list:
            if run_start < start + length and start < run_start + run_len:
                raise InvalidArgument(f"double free at {start}")
        merged = []
        for run in sorted(self.runs_list + [(start, length)]):
            if merged and merged[-1][0] + merged[-1][1] == run[0]:
                merged[-1] = (merged[-1][0], merged[-1][1] + run[1])
            else:
                merged.append(run)
        self.runs_list = merged


# ---------------------------------------------------------------------------
# differential drivers
# ---------------------------------------------------------------------------


def _outcome(fn, *args):
    """Run an op and normalize result vs (error type, error message)."""
    try:
        return ("ok", fn(*args))
    except (InvalidArgument, NoSpaceError) as exc:
        return ("err", type(exc).__name__, str(exc))


@pytest.mark.parametrize("seed", [1337, 20210826, 4242])
def test_extent_map_matches_naive_reference(seed):
    rng = random.Random(seed)
    fast, naive = ExtentMap(), NaiveExtentMap()
    for step in range(2500):
        roll = rng.random()
        offset = rng.randrange(0, 256) * BLOCK
        length = rng.randrange(1, 24) * BLOCK
        if roll < 0.45:
            extent = Extent(offset, rng.randrange(0, 2048) * BLOCK, length)
            assert fast.insert(extent) == naive.insert(extent)
        elif roll < 0.75:
            assert fast.punch(offset, length) == naive.punch(offset, length)
        else:
            assert fast.map_range(offset, length) == naive.map_range(offset, length)
        assert fast.extents() == naive.extents()
        if step % 16 == 0:
            assert fast.fragment_count() == naive.fragment_count()
        if step % 128 == 0:
            fast.check_invariants()
    fast.check_invariants()
    assert fast.extents() == naive.extents()


@pytest.mark.parametrize("seed", [1337, 90125, 271828])
def test_free_space_matches_naive_reference(seed):
    rng = random.Random(seed)
    region = 2048 * BLOCK
    fast = FreeSpaceManager(0, region)
    naive = NaiveFreeSpace(0, region)
    allocated = []
    for step in range(3000):
        roll = rng.random()
        if roll < 0.30:
            length = rng.randrange(1, 48) * BLOCK
            goal = (rng.randrange(0, 2048) * BLOCK
                    if rng.random() < 0.7 else None)
            a = _outcome(fast.alloc_contiguous, length, goal)
            b = _outcome(naive.alloc_contiguous, length, goal)
            assert a == b
            if a[0] == "ok":
                allocated.append((a[1], length))
        elif roll < 0.45:
            length = rng.randrange(1, 96) * BLOCK
            goal = (rng.randrange(0, 2048) * BLOCK
                    if rng.random() < 0.5 else None)
            a = _outcome(fast.alloc, length, goal)
            b = _outcome(naive.alloc, length, goal)
            assert a == b
            if a[0] == "ok":
                allocated.extend(a[1])
        elif roll < 0.55:
            start = rng.randrange(0, 2048) * BLOCK
            length = rng.randrange(1, 16) * BLOCK
            a = _outcome(fast.alloc_at, start, length)
            b = _outcome(naive.alloc_at, start, length)
            assert a == b
            if a[0] == "ok":
                allocated.append((start, length))
        elif allocated:
            start, length = allocated.pop(rng.randrange(len(allocated)))
            if length > BLOCK and rng.random() < 0.4:
                # free only a prefix; the suffix goes back on the list so
                # coalescing gets exercised from both sides
                cut = rng.randrange(1, length // BLOCK) * BLOCK
                allocated.append((start + cut, length - cut))
                length = cut
            a = _outcome(fast.free, start, length)
            b = _outcome(naive.free, start, length)
            assert a == b
        if rng.random() < 0.02 and allocated:
            # deliberate double free: both sides must reject identically
            start, length = allocated[rng.randrange(len(allocated))]
            assert _outcome(fast.free, start, length) == \
                _outcome(naive.free, start, length)
        assert fast.runs() == naive.runs()
        assert fast.free_bytes == naive.free_bytes()
        stats = fast.stats()
        assert (stats.free_bytes, stats.run_count, stats.largest_run) == (
            naive.free_bytes(), len(naive.runs_list), naive.largest_run()
        )
        if step % 64 == 0:
            fast.check_invariants()
    fast.check_invariants()


def test_free_space_rejects_bad_lengths_like_reference():
    fast = FreeSpaceManager(0, 64 * BLOCK)
    naive = NaiveFreeSpace(0, 64 * BLOCK)
    for length in (0, -BLOCK, BLOCK + 1):
        assert _outcome(fast.alloc_contiguous, length) == \
            _outcome(naive.alloc_contiguous, length)
        assert _outcome(fast.free, 0, length) == _outcome(naive.free, 0, length)


# ---------------------------------------------------------------------------
# batch plan / batch emission vectorizations (PR 9)
# ---------------------------------------------------------------------------


def _naive_optane_unit_work(first, last, banks, page_time):
    """The per-page accumulation loop the closed form replaced."""
    per_bank = {}
    for lpn in range(first, last + 1):
        bank = lpn % banks
        per_bank[bank] = per_bank.get(bank, 0.0) + page_time
    return tuple(per_bank.items())


def _naive_flash_read_unit_work(ftl, first, last, page_read):
    """Per-page loop over the L2P mapping itself (not the channel array)."""
    per_channel = {}
    mapping = ftl.mapping  # a view built on each access
    for lpn in range(first, last + 1):
        entry = mapping.get(lpn)
        channel = entry[0].channel if entry is not None else lpn % ftl.channels
        per_channel[channel] = per_channel.get(channel, 0.0) + page_read
    return tuple(per_channel.items())


def _naive_split_ranges(ranges, max_request_size):
    """The subtract-and-test cap loop the batch emission replaced."""
    commands = []

    def flush(cur_offset, cur_length):
        while cur_length > max_request_size:
            commands.append((cur_offset, max_request_size))
            cur_offset += max_request_size
            cur_length -= max_request_size
        commands.append((cur_offset, cur_length))

    cur_offset = cur_length = 0
    for offset, length in ranges:
        if length <= 0:
            continue
        if cur_length and cur_offset + cur_length == offset:
            cur_length += length
            continue
        if cur_length:
            flush(cur_offset, cur_length)
        cur_offset, cur_length = offset, length
    if cur_length:
        flush(cur_offset, cur_length)
    return commands


@pytest.mark.parametrize("seed", [1337, 99991])
def test_optane_batch_plan_matches_naive_loop(seed):
    from repro.block.request import IoOp
    from repro.device import optane
    from repro.device.optane import OptaneSsd

    rng = random.Random(seed)
    device = OptaneSsd()
    for _ in range(400):
        op = IoOp.READ if rng.random() < 0.5 else IoOp.WRITE
        offset = rng.randrange(0, 4096 * BLOCK)
        length = rng.randrange(1, 64 * BLOCK)
        plan = device._plan_command(op, offset, length)
        first = offset // BLOCK
        last = (offset + length - 1) // BLOCK
        page_time = (optane.PAGE_READ if op is IoOp.READ
                     else optane.PAGE_WRITE)
        # equality on the float values is bit-exact for these totals:
        # any last-ulp drift from the old accumulation loop must fail
        assert plan.unit_work == _naive_optane_unit_work(
            first, last, optane.BANKS, page_time
        )
        assert plan.link_bytes == length


@pytest.mark.parametrize("seed", [1337, 3141])
def test_flash_batch_read_plan_matches_naive_loop(seed):
    from repro.block.request import IoOp
    from repro.device.flash import PAGE_READ, FlashSsd

    rng = random.Random(seed)
    device = FlashSsd()
    # one range read again and again while it is rewritten and discarded
    # underneath: a cached plan must never outlive a remap
    hot_offset, hot_length = 512 * BLOCK, 20 * BLOCK + 1
    hot_plans = set()
    for _ in range(400):
        roll = rng.random()
        if roll < 0.25:
            # mutate the mapping so reads exercise both mapped pages and
            # the unwritten address-striped fallback
            op = IoOp.WRITE
        elif roll < 0.35:
            # discarded pages fall back to the address-striped channel
            op = IoOp.DISCARD
        else:
            op = IoOp.READ
        if rng.random() < 0.3:
            offset, length = hot_offset + rng.choice([0, 4 * BLOCK]), hot_length
        else:
            offset = rng.randrange(0, 2048 * BLOCK)
            length = rng.randrange(1, 48 * BLOCK)
        plan = device._plan_command(op, offset, length)
        if op is not IoOp.READ:
            continue
        first = offset // BLOCK
        last = (offset + length - 1) // BLOCK
        assert plan.unit_work == _naive_flash_read_unit_work(
            device.ftl, first, last, PAGE_READ
        )
        assert plan.link_bytes == length
        if offset == hot_offset:
            hot_plans.add(plan.unit_work)
    # the hot range really was remapped between its reads
    assert len(hot_plans) > 2


@pytest.mark.parametrize("seed", [1337, 60221023])
def test_split_ranges_batch_emission_matches_naive_loop(seed):
    from repro.block.splitter import split_ranges
    from repro.constants import MAX_REQUEST_SIZE

    rng = random.Random(seed)
    for _ in range(200):
        ranges = []
        cursor = rng.randrange(0, 64 * BLOCK)
        for _ in range(rng.randrange(0, 12)):
            if rng.random() < 0.3:
                ranges.append((cursor, 0))  # dropped, must not flush
            length = rng.choice([
                rng.randrange(1, 2 * BLOCK),
                rng.randrange(1, 4) * MAX_REQUEST_SIZE,
                rng.randrange(1, 4) * MAX_REQUEST_SIZE + rng.randrange(1, BLOCK),
            ])
            ranges.append((cursor, length))
            # adjacent ~half the time so merged runs span many caps
            cursor += length if rng.random() < 0.5 else length + BLOCK
        size = rng.choice([MAX_REQUEST_SIZE, 3 * BLOCK])
        assert split_ranges(ranges, size) == _naive_split_ranges(ranges, size)


def test_runs_and_stats_cached_until_mutation():
    fsm = FreeSpaceManager(0, 128 * BLOCK)
    first_runs = fsm.runs()
    first_stats = fsm.stats()
    # cached objects are returned as-is while nothing mutates
    assert fsm.runs() is first_runs
    assert fsm.stats() is first_stats
    start = fsm.alloc_contiguous(4 * BLOCK)
    assert fsm.runs() is not first_runs
    assert fsm.stats().free_bytes == 124 * BLOCK
    cached = fsm.stats()
    assert fsm.stats() is cached
    fsm.free(start, 4 * BLOCK)
    assert fsm.stats() is not cached
    assert fsm.stats().free_bytes == 128 * BLOCK
