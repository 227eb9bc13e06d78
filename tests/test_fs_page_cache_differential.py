"""Differential test: the stamp-ordered page cache against the key-based one.

``KeyedPageCache`` keeps the page cache as it was when every call took
``(ino, page)`` keys one page at a time, with an ``OrderedDict`` LRU.
Seeded streams of probes, fills, dirtying, cleaning, inode invalidation
and ``drop_clean`` over four inodes run through both at capacities small
enough that dirty pages get evicted, and after every step the LRU order
(``lru_keys()``), the stats, the dirty count, the per-inode indexes and
every returned value (missing pages, evicted keys, drop counts) must be
identical.  ``probe`` returns its missing pages as runs, which must be
maximal and ascending and flatten to the reference's missing pages;
``fill`` takes runs, made from each fill's page list by
:func:`fill_runs`.  Long streams over a few resident pages make the touch log
compact, and a deep copy taken mid-stream must go on like the original.
The same streams also run over pages that straddle two stamp chunks,
and scripted cases cover a refill after ``invalidate_inode``, a
permuted list and a far page index.  Two memory guards bound the bytes
held per resident page.
"""

import copy
import random
import tracemalloc
from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np
import pytest

from repro.fs.page_cache import CHUNK_BITS, PageCache, PageCacheStats

PageKey = Tuple[int, int]


class KeyedPageCache:
    """The key-based page cache (one ``(ino, page)`` key per page)."""

    def __init__(self, capacity_pages: int) -> None:
        self.capacity_pages = capacity_pages
        self._lru: "OrderedDict[PageKey, None]" = OrderedDict()
        self._by_ino: Dict[int, Set[int]] = {}
        self._dirty_by_ino: Dict[int, Set[int]] = {}
        self._dirty_total = 0
        self.stats = PageCacheStats()

    def probe(self, key: PageKey) -> bool:
        if key in self._lru:
            self._lru.move_to_end(key)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def fill(self, keys: Iterable[PageKey]) -> List[PageKey]:
        lru = self._lru
        by_ino = self._by_ino
        writeback: List[PageKey] = []
        for key in keys:
            if key in lru:
                lru.move_to_end(key)
            else:
                lru[key] = None
                ino, page = key
                resident = by_ino.get(ino)
                if resident is None:
                    resident = by_ino[ino] = set()
                resident.add(page)
        while len(lru) > self.capacity_pages:
            victim, _ = lru.popitem(last=False)
            ino, page = victim
            self._forget_resident(ino, page)
            dirty = self._dirty_by_ino.get(ino)
            if dirty is not None and page in dirty:
                dirty.discard(page)
                if not dirty:
                    del self._dirty_by_ino[ino]
                self._dirty_total -= 1
                writeback.append(victim)
        return writeback

    def mark_dirty(self, keys: Iterable[PageKey]) -> List[PageKey]:
        keys = list(keys)
        for ino, page in keys:
            dirty = self._dirty_by_ino.get(ino)
            if dirty is None:
                dirty = self._dirty_by_ino[ino] = set()
            if page not in dirty:
                dirty.add(page)
                self._dirty_total += 1
        return self.fill(keys)

    def clean(self, ino: int, pages: Iterable[int]) -> None:
        dirty = self._dirty_by_ino.get(ino)
        if dirty is None:
            return
        for page in pages:
            if page in dirty:
                dirty.discard(page)
                self._dirty_total -= 1
        if not dirty:
            del self._dirty_by_ino[ino]

    def invalidate_inode(self, ino: int) -> None:
        resident = self._by_ino.pop(ino, None)
        if resident:
            for page in resident:
                del self._lru[(ino, page)]
        dirty = self._dirty_by_ino.pop(ino, None)
        if dirty:
            self._dirty_total -= len(dirty)

    def drop_clean(self) -> int:
        doomed = [
            (ino, page) for ino, page in self._lru
            if page not in self._dirty_by_ino.get(ino, ())
        ]
        for key in doomed:
            del self._lru[key]
            self._forget_resident(key[0], key[1])
        return len(doomed)

    def _forget_resident(self, ino: int, page: int) -> None:
        resident = self._by_ino.get(ino)
        if resident is not None:
            resident.discard(page)
            if not resident:
                del self._by_ino[ino]


INODES = 4
PAGES_PER_INODE = 48


def pages_arg(rng: random.Random, base: int = 0):
    """A run as a ``range``, or a list (sometimes unsorted, with repeats)."""
    start = base + rng.randrange(PAGES_PER_INODE)
    length = rng.randint(0, 12)
    if rng.random() < 0.5:
        return range(start, min(base + PAGES_PER_INODE, start + length))
    return [base + rng.randrange(PAGES_PER_INODE) for _ in range(length)]


def fill_runs(pages) -> List[range]:
    """The runs that touch ``pages`` in the reference's LRU order: each
    repeated page at its last occurrence, consecutive ascending pages
    as one run (in any order between runs)."""
    if isinstance(pages, range):
        return [pages] if pages else []
    runs: List[range] = []
    for page in list(dict.fromkeys(reversed(pages)))[::-1]:
        if runs and runs[-1].stop == page:
            runs[-1] = range(runs[-1].start, page + 1)
        else:
            runs.append(range(page, page + 1))
    return runs


def flatten_runs(runs: List[range]) -> List[int]:
    """The pages of ``probe``'s runs, after checking the runs are
    non-empty, ascending and maximal (a gap between every two)."""
    assert all(type(run) is range and run.step == 1 and run for run in runs), runs
    assert all(a.stop < b.start for a, b in zip(runs, runs[1:])), runs
    return [page for run in runs for page in run]


def resident_by_ino(cache: PageCache) -> Dict[int, Set[int]]:
    """Resident pages per inode, read from the stamp chunks; inodes with
    nothing resident are left out, as ``KeyedPageCache`` leaves them."""
    by_ino = {}
    for ino, chunks in cache._chunks.items():
        pages = set()
        for key, chunk in chunks.items():
            slots = np.flatnonzero(np.frombuffer(chunk, dtype=np.int64) >= 0)
            pages.update((slots + (key << CHUNK_BITS)).tolist())
        if pages:
            by_ino[ino] = pages
    return by_ino


def state(cache) -> tuple:
    """LRU order, stats, dirty count and the per-inode indexes."""
    if isinstance(cache, KeyedPageCache):
        lru, by_ino = list(cache._lru), cache._by_ino
    else:
        lru = list(cache.lru_keys())
        by_ino = resident_by_ino(cache)
        assert len(cache) == len(lru)
    return (
        lru, cache.stats.hits, cache.stats.misses,
        cache._dirty_total, by_ino, cache._dirty_by_ino,
    )


def random_ops(seed: int, steps: int, base: int = 0) -> Iterator[tuple]:
    """A seeded stream of ``(call, ino, *args)`` over pages
    ``base..base + PAGES_PER_INODE``."""
    rng = random.Random(seed)
    for _ in range(steps):
        roll = rng.random()
        ino = rng.randrange(INODES)
        if roll < 0.3:
            first = base + rng.randrange(PAGES_PER_INODE)
            yield "probe", ino, first, first + rng.randint(0, 10)
        elif roll < 0.55:
            yield "fill", ino, pages_arg(rng, base)
        elif roll < 0.85:
            yield "mark_dirty", ino, pages_arg(rng, base)
        elif roll < 0.93:
            yield "clean", ino, pages_arg(rng, base)
        elif roll < 0.97:
            yield "invalidate_inode", ino
        else:
            yield "drop_clean", ino


def check_ops(capacity: int, ops: Iterable[tuple], copy_at: Optional[int] = None, label: object = None) -> int:
    """Drive both caches through ``ops``; returns how many dirty pages
    were evicted.

    With ``copy_at``, a ``copy.deepcopy`` of the cache taken before that
    step is driven beside the original from then on, and both must keep
    matching the reference.
    """
    ref = KeyedPageCache(capacity)
    caches = [PageCache(capacity)]
    evicted_dirty = 0
    for step, (call, ino, *args) in enumerate(ops):
        if step == copy_at:
            caches.append(copy.deepcopy(caches[0]))
        if call == "probe":
            first, last = args
            got = [flatten_runs(new.probe(ino, first, last)) for new in caches]
            want = [p for p in range(first, last + 1) if not ref.probe((ino, p))]
        elif call == "fill":
            (pages,) = args
            got = [new.fill(ino, fill_runs(pages)) for new in caches]
            want = ref.fill((ino, p) for p in pages)
            evicted_dirty += len(want)
        elif call == "mark_dirty":
            (pages,) = args
            got = [new.mark_dirty(ino, pages) for new in caches]
            want = ref.mark_dirty((ino, p) for p in pages)
            evicted_dirty += len(want)
        elif call == "clean":
            (pages,) = args
            got = [new.clean(ino, pages) for new in caches]
            want = ref.clean(ino, pages)
        elif call == "invalidate_inode":
            got = [new.invalidate_inode(ino) for new in caches]
            want = ref.invalidate_inode(ino)
        else:
            got = [new.drop_clean() for new in caches]
            want = ref.drop_clean()
        for new in caches:
            assert got.pop(0) == want, (label, call, step)
            assert new.dirty_count() == ref._dirty_total
            assert state(new) == state(ref), (label, call, step)
    return evicted_dirty


def run_stream(seed: int, capacity: int, steps: int, copy_at: Optional[int] = None, base: int = 0) -> int:
    """Drive both caches through a seeded stream (see :func:`check_ops`)."""
    return check_ops(capacity, random_ops(seed, steps, base), copy_at, label=seed)


@pytest.mark.parametrize("capacity", [8, 16, 32, 64])
def test_per_inode_api_matches_keyed_cache(capacity):
    evicted = sum(run_stream(seed * 31 + capacity, capacity, 300) for seed in range(25))
    assert evicted > 0  # dirty eviction is part of what is compared


def test_long_stream_compacts_the_touch_log(monkeypatch):
    """Thousands of touches over a handful of resident pages: the log is
    rebuilt many times, and LRU order survives every rebuild."""
    compactions = []
    compact = PageCache._compact

    def counted(cache):
        compactions.append(cache._logged)
        compact(cache)

    monkeypatch.setattr(PageCache, "_compact", counted)
    for seed in range(3):
        run_stream(1000 + seed, 4, 3000)
    assert len(compactions) > 100


@pytest.mark.parametrize("copy_at", [0, 150, 299])
def test_deep_copy_continues_identically(copy_at):
    """An aged filesystem is deep-copied mid-life; the copy and the
    original must each go on exactly as the reference does."""
    for seed in range(5):
        run_stream(seed * 7 + copy_at, 16, 300, copy_at=copy_at)


@pytest.mark.parametrize("capacity", [8, 32])
def test_streams_across_a_chunk_boundary(capacity):
    """The same streams over pages that straddle two stamp chunks: runs
    split at the boundary, and probes, fills and evictions span both."""
    base = (1 << CHUNK_BITS) - PAGES_PER_INODE // 2
    evicted = sum(run_stream(seed, capacity, 300, base=base) for seed in range(10))
    assert evicted > 0


def test_refill_after_invalidate_ignores_stale_entries():
    """An inode is dropped and refilled over a shorter span; its old log
    entries, one of them in a chunk that is now gone, must neither fail
    nor count as live when eviction, then compaction, walk past them."""
    far = 3 << CHUNK_BITS
    refill = [
        ("mark_dirty", 1, range(0, 6)),
        ("mark_dirty", 1, range(far, far + 2)),
        ("fill", 2, range(0, 8)),
        ("invalidate_inode", 1),
        ("mark_dirty", 1, range(0, 3)),
        ("probe", 1, 0, 5),
    ]
    check_ops(16, refill + [
        ("fill", 2, range(8, 14)),      # eviction walks the stale entries
        ("mark_dirty", 3, range(0, 10)),
    ])
    check_ops(16, refill + [("probe", 2, 0, 7)] * 4)  # compaction does


def test_permuted_list_keeps_its_order():
    """A list that is a permutation of a contiguous run is not one run:
    LRU order and dirty eviction follow the list."""
    cache = PageCache(4)
    cache.mark_dirty(1, [5, 7, 6, 8])
    assert list(cache.lru_keys()) == [(1, 5), (1, 7), (1, 6), (1, 8)]
    assert range(5, 9) not in [run for _, run, _ in cache._log]
    check_ops(2, [
        ("mark_dirty", 1, [5, 7, 6, 8]),
        ("mark_dirty", 1, [9, 7, 9, 5]),
        ("fill", 2, [3, 1, 2, 3]),
    ])


def test_far_page_holds_one_chunk():
    """A touch at page 2**24 allocates the one chunk that holds it, not
    an array reaching up to it."""
    page = 1 << 24
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cache = PageCache()
        cache.mark_dirty(7, [page])
        assert cache.probe(7, page, page + 1) == [range(page + 1, page + 2)]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert list(cache._chunks[7]) == [page >> CHUNK_BITS]
    assert len(cache._chunks[7][page >> CHUNK_BITS]) == 1 << CHUNK_BITS
    assert held < 2 * 8 << CHUNK_BITS, held  # one 8 KiB chunk, not two
    check_ops(1, [
        ("mark_dirty", 7, [page]),
        ("probe", 7, page - 1, page + 1),
        ("fill", 7, range(page + 1, page + 3)),
    ])


@pytest.fixture(scope="module")
def resident_scenario():
    """131,072 resident pages: 64 inodes x 2,048, filled in 32-page runs,
    then probed in 16-page runs (every probe hits).  Returns the bytes
    the cache holds and its resident page count."""
    inodes, pages_per_inode = 64, 2048
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cache = PageCache()
        for ino in range(inodes):
            for first in range(0, pages_per_inode, 32):
                cache.fill(ino, [range(first, first + 32)])
        for ino in range(inodes):
            for first in range(0, pages_per_inode, 16):
                assert cache.probe(ino, first, first + 15) == []
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    resident = inodes * pages_per_inode
    assert len(cache) == resident
    return held, resident


def test_resident_page_costs_at_most_160_bytes(resident_scenario):
    held, resident = resident_scenario
    assert held / resident <= 160, held / resident


#: bytes held per resident page in ``resident_scenario``: 27.7 measured
#: (8 B of stamp chunk per page, the rest the touch log's run entries)
STAMPED_BYTES_PER_PAGE = 32


def test_resident_page_costs_at_most_32_bytes(resident_scenario):
    held, resident = resident_scenario
    assert held / resident <= STAMPED_BYTES_PER_PAGE, held / resident
