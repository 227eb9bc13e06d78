"""LRU page cache.

Buffered reads fill it, buffered writes dirty it, fsync/writeback cleans
it.  O_DIRECT bypasses it entirely (as in Linux).  Capacity is configurable
so experiments can model memory pressure; eviction of a dirty page reports
it to the caller for writeback.

Every call that touches pages names one inode and a run or list of its
page indices (``probe(ino, first, last)``, ``fill(ino, pages)``,
``mark_dirty(ino, pages)``), and each does its per-page work inside C
calls, not in a Python loop:

- **Residency.** Each inode has one ``{page: stamp}`` dict whose keys
  are its resident pages.  Stamps come from one counter, so every touch
  of every page gets a stamp no other touch has.
- **Touches.** A touching call (the hits of a probe, a fill, a
  mark-dirty) restamps its pages with one ``dict.update`` and appends one
  ``(ino, pages, first_stamp)`` entry to the touch log, ``pages`` stored
  as passed (a ``range`` costs O(1)).
- **Liveness.** Page ``pages[i]`` of an entry is live while its stamp is
  still ``first_stamp + i``.  A later touch restamps it, so each
  resident page is live in exactly one entry, and the live pages of the
  log, in log order, are the LRU order.  A page repeated within one call
  is live only at its last occurrence, as with ``move_to_end``.
- **Eviction.** Eviction walks the log from a cursor in its head entry
  and drops live pages until the cache is back under capacity; dirty
  victims return as ``(ino, page)`` keys in LRU order.
- **Compaction.** Once the log holds more than ``COMPACT_RATIO`` times
  as many pages as are resident, it is rebuilt from its live pages,
  which is amortised O(1) per touch.

Dropping an inode (``invalidate_inode``) pops its dict; its log entries
die by the stamp check.  Dirtiness is a per-inode set beside the stamps.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count, filterfalse, islice
from operator import eq
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

PageKey = Tuple[int, int]  # (ino, page index)

#: the touch log is compacted when it holds more than this many times as
#: many pages as are resident.  A buffered sequential read touches each
#: page twice (the readahead fill, then the read that hits it), so a
#: ratio of 2 would compact on a first pass; 3 compacts once pages are
#: re-read, and holds the log to three pages per resident page
COMPACT_RATIO = 3


@dataclass
class PageCacheStats:
    hits: int = 0
    misses: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PageCache:
    """Stamp-ordered LRU over (inode, page) with a per-inode dirty index."""

    def __init__(self, capacity_pages: int = 1 << 20) -> None:
        self.capacity_pages = capacity_pages
        #: per inode, ``{page: stamp of its latest touch}``
        self._stamps: Dict[int, Dict[int, int]] = {}
        #: ``(ino, pages, first_stamp)`` per touching call, oldest first;
        #: entries before ``_head`` are spent
        self._log: List[Tuple[int, Sequence[int], int]] = []
        self._head = 0
        #: next page of the head entry eviction looks at
        self._cursor = 0
        #: pages held by the log's entries, spent ones included
        self._logged = 0
        self._next_stamp = 0
        self._resident = 0
        #: dirty page indices per inode (dirty pages are always resident)
        self._dirty_by_ino: Dict[int, Set[int]] = {}
        self._dirty_total = 0
        self.stats = PageCacheStats()

    def __contains__(self, key: PageKey) -> bool:
        stamps = self._stamps.get(key[0])
        return stamps is not None and key[1] in stamps

    def __len__(self) -> int:
        return self._resident

    def lru_keys(self) -> Iterator[PageKey]:
        """Every resident page as ``(ino, page)``, least recent first."""
        stamps_of = self._stamps
        start = self._cursor
        for ino, pages, first in islice(self._log, self._head, None):
            stamps = stamps_of.get(ino)
            if stamps is not None:
                for index in range(start, len(pages)):
                    page = pages[index]
                    if stamps.get(page) == first + index:
                        yield ino, page
            start = 0

    # -- lookup ----------------------------------------------------------

    def probe(self, ino: int, first: int, last: int) -> List[int]:
        """Probe pages ``first..last`` (inclusive) of one inode.

        Hits move to the LRU tail in page order; returns the missing
        pages in ascending order and updates the hit/miss stats.
        """
        pages = range(first, last + 1)
        stamps = self._stamps.get(ino)
        stats = self.stats
        if stamps is None:
            stats.misses += len(pages)
            return list(pages)
        missing = list(filterfalse(stamps.__contains__, pages))
        hits = len(pages) - len(missing)
        if hits:
            self._touch(
                ino, stamps,
                list(filter(stamps.__contains__, pages)) if missing else pages,
            )
        stats.hits += hits
        stats.misses += len(missing)
        return missing

    # -- population ------------------------------------------------------

    def fill(self, ino: int, pages: Sequence[int]) -> List[PageKey]:
        """Insert clean pages of one inode; returns the dirty pages
        evicted to make room, as ``(ino, page)`` keys in LRU order.

        ``pages`` is kept in the touch log as passed, so pass a ``range``
        or a list that is not changed afterwards.
        """
        if pages:
            stamps = self._stamps.get(ino)
            if stamps is None:
                stamps = self._stamps[ino] = {}
            self._touch(ino, stamps, pages)
        if self._resident > self.capacity_pages:
            return self._evict()
        return []

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

    def _touch(self, ino: int, stamps: Dict[int, int], pages: Sequence[int]) -> None:
        """Move ``pages`` (resident or not) to the LRU tail, in order."""
        first = self._next_stamp
        before = len(stamps)
        stamps.update(zip(pages, count(first)))
        self._resident += len(stamps) - before
        self._next_stamp = first + len(pages)
        self._log.append((ino, pages, first))
        self._logged += len(pages)
        if self._logged > COMPACT_RATIO * self._resident:
            self._compact()

    def _evict(self) -> List[PageKey]:
        """Drop least-recent pages down to capacity; returns the dirty ones."""
        stamps_of = self._stamps
        dirty_by_ino = self._dirty_by_ino
        log = self._log
        head, cursor = self._head, self._cursor
        excess = self._resident - self.capacity_pages
        self._resident -= excess
        writeback: List[PageKey] = []
        while excess:
            ino, pages, first = log[head]
            end = len(pages)
            stamps = stamps_of.get(ino)
            if stamps is None:
                cursor = end
            else:
                dirty = dirty_by_ino.get(ino)
                while cursor < end and excess:
                    page = pages[cursor]
                    if stamps.get(page) == first + cursor:
                        del stamps[page]
                        excess -= 1
                        if dirty is not None and page in dirty:
                            dirty.discard(page)
                            writeback.append((ino, page))
                    cursor += 1
                if not stamps:
                    del stamps_of[ino]
                if dirty is not None and not dirty:
                    del dirty_by_ino[ino]
            if cursor == end:
                head += 1
                cursor = 0
        self._head, self._cursor = head, cursor
        self._dirty_total -= len(writeback)
        return writeback

    def _compact(self) -> None:
        """Rebuild the log from its live pages, in LRU order.

        A wholly live entry is kept as it is; the live pages of a partly
        live one become a new entry under fresh stamps.
        """
        stamps_of = self._stamps
        log: List[Tuple[int, Sequence[int], int]] = []
        start = self._cursor
        for ino, pages, first in islice(self._log, self._head, None):
            stamps = stamps_of.get(ino)
            if stamps is not None:
                if start:
                    pages, first, start = pages[start:], first + start, 0
                live = list(map(eq, map(stamps.get, pages), count(first)))
                alive = live.count(True)
                if alive == len(live):
                    log.append((ino, pages, first))
                elif alive:
                    kept = list(compress(pages, live))
                    fresh = self._next_stamp
                    stamps.update(zip(kept, count(fresh)))
                    self._next_stamp = fresh + len(kept)
                    log.append((ino, kept, fresh))
            start = 0
        self._log = log
        self._head = self._cursor = 0
        self._logged = self._resident

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
        """Drop every page of an inode (unlink)."""
        stamps = self._stamps.pop(ino, None)
        if stamps:
            self._resident -= len(stamps)
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
            for ino, page in self.lru_keys()
            if page not in dirty_by_ino.get(ino, ())
        ]
        stamps_of = self._stamps
        for ino, page in doomed:
            stamps = stamps_of[ino]
            del stamps[page]
            if not stamps:
                del stamps_of[ino]
        self._resident -= len(doomed)
        return len(doomed)
