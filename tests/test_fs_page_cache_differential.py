"""Differential test: the stamp-ordered page cache against the key-based one.

``KeyedPageCache`` keeps the page cache as it was when every call took
``(ino, page)`` keys one page at a time, with an ``OrderedDict`` LRU.
Seeded streams of probes, fills, dirtying, cleaning, inode invalidation
and ``drop_clean`` over four inodes run through both at capacities small
enough that dirty pages get evicted, and after every step the LRU order
(``lru_keys()``), the stats, the dirty count, the per-inode indexes and
every returned value (missing pages, evicted keys, drop counts) must be
identical.  Long streams over a few resident pages make the touch log
compact, and a deep copy taken mid-stream must go on like the original.
"""

import copy
import random
import tracemalloc
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Set, Tuple

import pytest

from repro.fs.page_cache import PageCache, PageCacheStats

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


def pages_arg(rng: random.Random):
    """A run as a ``range``, or a list (sometimes unsorted, with repeats)."""
    start = rng.randrange(PAGES_PER_INODE)
    length = rng.randint(0, 12)
    if rng.random() < 0.5:
        return range(start, min(PAGES_PER_INODE, start + length))
    return [rng.randrange(PAGES_PER_INODE) for _ in range(length)]


def state(cache) -> tuple:
    """LRU order, stats, dirty count and the per-inode indexes."""
    if isinstance(cache, KeyedPageCache):
        lru, by_ino = list(cache._lru), cache._by_ino
    else:
        lru = list(cache.lru_keys())
        by_ino = {ino: set(stamps) for ino, stamps in cache._stamps.items()}
        assert len(cache) == len(lru)
    return (
        lru, cache.stats.hits, cache.stats.misses,
        cache._dirty_total, by_ino, cache._dirty_by_ino,
    )


def run_stream(seed: int, capacity: int, steps: int, copy_at: Optional[int] = None) -> int:
    """Drive both caches; returns how many dirty pages were evicted.

    With ``copy_at``, a ``copy.deepcopy`` of the cache taken before that
    step is driven beside the original from then on, and both must keep
    matching the reference.
    """
    rng = random.Random(seed)
    ref = KeyedPageCache(capacity)
    caches = [PageCache(capacity)]
    evicted_dirty = 0
    for step in range(steps):
        if step == copy_at:
            caches.append(copy.deepcopy(caches[0]))
        roll = rng.random()
        ino = rng.randrange(INODES)
        if roll < 0.3:
            first = rng.randrange(PAGES_PER_INODE)
            last = first + rng.randint(0, 10)
            got = [new.probe(ino, first, last) for new in caches]
            want = [p for p in range(first, last + 1) if not ref.probe((ino, p))]
        elif roll < 0.55:
            pages = pages_arg(rng)
            got = [new.fill(ino, pages) for new in caches]
            want = ref.fill((ino, p) for p in pages)
            evicted_dirty += len(want)
        elif roll < 0.85:
            pages = pages_arg(rng)
            got = [new.mark_dirty(ino, pages) for new in caches]
            want = ref.mark_dirty((ino, p) for p in pages)
            evicted_dirty += len(want)
        elif roll < 0.93:
            pages = pages_arg(rng)
            got = [new.clean(ino, pages) for new in caches]
            want = ref.clean(ino, pages)
        elif roll < 0.97:
            got = [new.invalidate_inode(ino) for new in caches]
            want = ref.invalidate_inode(ino)
        else:
            got = [new.drop_clean() for new in caches]
            want = ref.drop_clean()
        for new in caches:
            assert got.pop(0) == want, (seed, step)
            assert new.dirty_count() == ref._dirty_total
            assert state(new) == state(ref), (seed, step)
    return evicted_dirty


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


def test_resident_page_costs_at_most_160_bytes():
    """131,072 resident pages: 64 inodes x 2,048, filled in 32-page runs,
    then probed in 16-page runs (every probe hits)."""
    inodes, pages_per_inode = 64, 2048
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cache = PageCache()
        for ino in range(inodes):
            for first in range(0, pages_per_inode, 32):
                cache.fill(ino, range(first, first + 32))
        for ino in range(inodes):
            for first in range(0, pages_per_inode, 16):
                assert cache.probe(ino, first, first + 15) == []
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    resident = inodes * pages_per_inode
    assert len(cache) == resident
    assert held / resident <= 160, held / resident
