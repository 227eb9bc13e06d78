"""Differential test: the per-inode page-cache API against the key-based one.

``KeyedPageCache`` keeps the page cache as it was when every call took
``(ino, page)`` keys one page at a time.  Seeded streams of probes, fills,
dirtying, cleaning, inode invalidation and ``drop_clean`` over four
inodes run through both at capacities small enough that dirty pages get
evicted, and after every step the LRU order, the stats, the dirty count,
the per-inode indexes and every returned value (missing pages, evicted
keys, drop counts) must be identical.
"""

import random
from collections import OrderedDict
from typing import Dict, Iterable, List, Set, Tuple

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
    return (
        list(cache._lru), cache.stats.hits, cache.stats.misses,
        cache._dirty_total, cache._by_ino, cache._dirty_by_ino,
    )


def run_stream(seed: int, capacity: int, steps: int) -> int:
    """Drive both caches; returns how many dirty pages were evicted."""
    rng = random.Random(seed)
    new, ref = PageCache(capacity), KeyedPageCache(capacity)
    evicted_dirty = 0
    for step in range(steps):
        roll = rng.random()
        ino = rng.randrange(INODES)
        if roll < 0.3:
            first = rng.randrange(PAGES_PER_INODE)
            last = first + rng.randint(0, 10)
            got = new.probe(ino, first, last)
            want = [p for p in range(first, last + 1) if not ref.probe((ino, p))]
        elif roll < 0.55:
            pages = pages_arg(rng)
            got = new.fill(ino, pages)
            want = ref.fill((ino, p) for p in pages)
            evicted_dirty += len(got)
        elif roll < 0.85:
            pages = pages_arg(rng)
            got = new.mark_dirty(ino, pages)
            want = ref.mark_dirty((ino, p) for p in pages)
            evicted_dirty += len(got)
        elif roll < 0.93:
            pages = pages_arg(rng)
            got = new.clean(ino, pages)
            want = ref.clean(ino, pages)
        elif roll < 0.97:
            got = new.invalidate_inode(ino)
            want = ref.invalidate_inode(ino)
        else:
            got = new.drop_clean()
            want = ref.drop_clean()
        assert got == want, (seed, step)
        assert new.dirty_count() == ref._dirty_total
        assert state(new) == state(ref), (seed, step)
    return evicted_dirty


@pytest.mark.parametrize("capacity", [8, 16, 32, 64])
def test_per_inode_api_matches_keyed_cache(capacity):
    evicted = sum(run_stream(seed * 31 + capacity, capacity, 300) for seed in range(25))
    assert evicted > 0  # dirty eviction is part of what is compared
