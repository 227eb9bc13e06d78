"""LRU page cache.

Buffered reads fill it, buffered writes dirty it, fsync/writeback cleans
it.  O_DIRECT bypasses it entirely (as in Linux).  Capacity is configurable
so experiments can model memory pressure; eviction of a dirty page reports
it to the caller for writeback.

Residency and dirtiness are indexed per inode so ``dirty_pages`` and
``invalidate_inode`` touch only that inode's pages instead of scanning
the whole cache; the LRU itself is an ``OrderedDict`` (O(1) hit/refresh).
Every call that touches pages names one inode and a run or list of its
page indices (``probe(ino, first, last)``, ``fill(ino, pages)``,
``mark_dirty(ino, pages)``), so the per-inode sets update with one
set-level operation; only evictions come back as ``(ino, page)`` keys,
because one fill can evict pages of any inode.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple

PageKey = Tuple[int, int]  # (ino, page index)


@dataclass
class PageCacheStats:
    hits: int = 0
    misses: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PageCache:
    """LRU over (inode, page) keys with a per-inode dirty index."""

    def __init__(self, capacity_pages: int = 1 << 20) -> None:
        self.capacity_pages = capacity_pages
        self._lru: "OrderedDict[PageKey, None]" = OrderedDict()
        #: resident page indices per inode (invalidate without a full scan)
        self._by_ino: Dict[int, Set[int]] = {}
        #: dirty page indices per inode (dirty pages are always resident)
        self._dirty_by_ino: Dict[int, Set[int]] = {}
        self._dirty_total = 0
        self.stats = PageCacheStats()

    def __contains__(self, key: PageKey) -> bool:
        return key in self._lru

    def __len__(self) -> int:
        return len(self._lru)

    # -- lookup ----------------------------------------------------------

    def probe(self, ino: int, first: int, last: int) -> List[int]:
        """Probe pages ``first..last`` (inclusive) of one inode.

        Hits move to the LRU tail in page order; returns the missing
        pages in ascending order and updates the hit/miss stats.
        """
        pages = range(first, last + 1)
        resident = self._by_ino.get(ino)
        if resident is None:
            missing = list(pages)
        else:
            move_to_end = self._lru.move_to_end
            missing = []
            for page in pages:
                if page in resident:
                    move_to_end((ino, page))
                else:
                    missing.append(page)
        stats = self.stats
        stats.hits += len(pages) - len(missing)
        stats.misses += len(missing)
        return missing

    # -- population ------------------------------------------------------

    def fill(self, ino: int, pages: Sequence[int]) -> List[PageKey]:
        """Insert clean pages of one inode; returns the dirty pages
        evicted to make room, as ``(ino, page)`` keys in LRU order.

        ``pages`` is iterated more than once, so pass a list or range.
        """
        lru = self._lru
        move_to_end = lru.move_to_end
        for page in pages:
            key = (ino, page)
            if key in lru:
                move_to_end(key)
            else:
                lru[key] = None
        resident = self._by_ino.get(ino)
        if resident is None:
            if pages:
                self._by_ino[ino] = set(pages)
        else:
            resident.update(pages)
        writeback: List[PageKey] = []
        capacity = self.capacity_pages
        while len(lru) > capacity:
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

    def mark_dirty(self, ino: int, pages: Sequence[int]) -> List[PageKey]:
        """Insert/refresh pages of one inode as dirty; returns evicted
        dirty pages (see :meth:`fill`)."""
        dirty = self._dirty_by_ino.get(ino)
        if dirty is None:
            if pages:
                dirty = self._dirty_by_ino[ino] = set(pages)
                self._dirty_total += len(dirty)
        else:
            before = len(dirty)
            dirty.update(pages)
            self._dirty_total += len(dirty) - before
        return self.fill(ino, pages)

    # -- writeback -------------------------------------------------------

    def dirty_pages(self, ino: int) -> List[int]:
        """Sorted dirty page indices of one inode."""
        return sorted(self._dirty_by_ino.get(ino, ()))

    def clean(self, ino: int, pages: Iterable[int]) -> None:
        dirty = self._dirty_by_ino.get(ino)
        if dirty is None:
            return
        before = len(dirty)
        dirty.difference_update(pages)
        self._dirty_total -= before - len(dirty)
        if not dirty:
            del self._dirty_by_ino[ino]

    def invalidate_inode(self, ino: int) -> None:
        """Drop every page of an inode (unlink / O_DIRECT coherence)."""
        resident = self._by_ino.pop(ino, None)
        if resident:
            lru = self._lru
            for page in resident:
                del lru[(ino, page)]
        dirty = self._dirty_by_ino.pop(ino, None)
        if dirty:
            self._dirty_total -= len(dirty)

    def dirty_count(self) -> int:
        return self._dirty_total

    def drop_clean(self) -> int:
        """Evict every clean page (``drop_caches``); returns count dropped."""
        dirty_by_ino = self._dirty_by_ino
        doomed = [
            (ino, page)
            for ino, page in self._lru
            if page not in dirty_by_ino.get(ino, ())
        ]
        lru = self._lru
        for key in doomed:
            del lru[key]
            self._forget_resident(key[0], key[1])
        return len(doomed)

    def _forget_resident(self, ino: int, page: int) -> None:
        resident = self._by_ino.get(ino)
        if resident is not None:
            resident.discard(page)
            if not resident:
                del self._by_ino[ino]
