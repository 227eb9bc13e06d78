"""LRU page cache.

Buffered reads fill it, buffered writes dirty it, fsync/writeback cleans
it.  O_DIRECT bypasses it entirely (as in Linux).  Capacity is configurable
so experiments can model memory pressure; eviction of a dirty page reports
it to the caller for writeback.

Every call that touches pages names one inode and a run, runs or list
of its page indices (``probe(ino, first, last)``, ``fill(ino, runs)``,
``mark_dirty(ino, pages)``), and each does its per-page work inside C
calls, not in a Python loop.  ``probe`` returns the missing pages as
maximal ascending ``range`` runs, and ``fill`` takes such runs, so a
buffered miss carries its pages from the probe to the fill without a
page index as a Python int:

- **Residency.** Each inode has chunks of :data:`CHUNK` stamps, one
  ``array('q')`` per chunk of its page index space, allocated on first
  touch (the layout of ``device/ftl.py``'s l2p map), so a sparse page
  index never allocates up to itself.  A resident page holds the stamp
  of its latest touch; -1 means not resident.  A chunk is freed once
  eviction leaves it empty.
- **Touches.** A touching call (the hits of a probe, a fill, a
  mark-dirty) takes one stamp from a counter and writes it over all its
  pages, one slice fill per run of consecutive ascending pages.  Each
  run goes into the touch log as one ``(ino, range, stamp)`` entry, split
  where it crosses a chunk boundary, so the cache holds no page index as
  a Python int.  An ascending list is split into its maximal runs; a
  list in any other order becomes one run per page, in its own order,
  with a repeated page kept only at its last occurrence.
- **Liveness.** A page of an entry is live while its stamp is still the
  entry's stamp.  A later touch restamps it, so each resident page is
  live in exactly one entry, and the live pages of the log, in log
  order, are the LRU order.
- **Eviction.** Eviction walks the log from a cursor in its head entry
  and drops live pages until the cache is back under capacity; dirty
  victims return as ``(ino, page)`` keys in LRU order.
- **Compaction.** Once the log holds more than ``COMPACT_RATIO`` times
  as many pages as are resident, it is rebuilt from the live runs of its
  entries, which keep their stamps; amortised O(1) per touch.

Dropping an inode (``invalidate_inode``) pops its chunks; its log entries
die by the stamp check, since a refilled inode only holds newer stamps.
Dirtiness is a per-inode set of page indices beside the stamps.
"""

from __future__ import annotations

from array import array
from itertools import compress, count, islice, repeat
from operator import eq, lt, ne, sub
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from ..types import Record

PageKey = Tuple[int, int]  # (ino, page index)

#: pages per stamp chunk (``device/ftl.py``'s ``L2P_CHUNK``)
CHUNK_BITS = 10
CHUNK = 1 << CHUNK_BITS
_MASK = CHUNK - 1
#: a chunk with no page resident; never mutated
_EMPTY = array("q", [-1]) * CHUNK

#: the touch log is compacted when it holds more than this many times as
#: many pages as are resident.  A buffered sequential read touches each
#: page twice (the readahead fill, then the read that hits it), so a
#: ratio of 2 would compact on a first pass; 3 compacts once pages are
#: re-read, and holds the log to three pages per resident page
COMPACT_RATIO = 3

Chunks = Dict[int, array]  # chunk number -> CHUNK stamps, -1 if not resident


def page_runs(pages: Sequence[int]) -> List[range]:
    """Split strictly ascending page indices into maximal runs of
    consecutive pages (``[1, 2, 3, 7, 9, 10]`` -> ``1..3, 7, 9..10``)."""
    if not pages:
        return []
    first, last = pages[0], pages[-1]
    if last - first == len(pages) - 1:
        return [range(first, last + 1)]
    # indices where a page does not follow its predecessor
    breaks = list(compress(count(1), map(ne, map(sub, islice(pages, 1, None), pages), repeat(1))))
    bounds = [0, *breaks, len(pages)]
    return [range(pages[a], pages[b - 1] + 1) for a, b in zip(bounds, islice(bounds, 1, None))]


def _gaps(stamps: array, first: int) -> List[Tuple[int, int]]:
    """The ``(start, stop)`` page runs not resident in ``stamps``, the
    stamps of pages ``first..``; one C-level search per run edge."""
    flags = bytes(map(eq, stamps, repeat(-1)))
    size = len(flags)
    gaps = []
    lo = flags.find(1)
    while lo >= 0:
        hi = flags.find(0, lo)
        if hi < 0:
            hi = size
        gaps.append((first + lo, first + hi))
        lo = flags.find(1, hi)
    return gaps


def _as_runs(pages: Sequence[int]) -> List[range]:
    """The runs a touch of ``pages`` writes, in LRU order."""
    if type(pages) is range and pages.step == 1:
        return [pages] if pages else []
    if all(map(lt, pages, islice(pages, 1, None))):
        return page_runs(pages)
    # any other order: one run per page, each repeated page only at its
    # last occurrence
    return [range(page, page + 1) for page in dict.fromkeys(reversed(pages))][::-1]


class PageCacheStats(Record):
    __slots__ = _fields = ("hits", "misses")

    def __init__(self, hits: int = 0, misses: int = 0) -> None:
        self.hits = hits
        self.misses = misses

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PageCache:
    """Stamp-ordered LRU over (inode, page) with a per-inode dirty index."""

    def __init__(self, capacity_pages: int = 1 << 20) -> None:
        self.capacity_pages = capacity_pages
        #: per inode, its stamp chunks
        self._chunks: Dict[int, Chunks] = {}
        #: ``(ino, run, stamp)`` per run of a touching call, oldest first,
        #: each run inside one chunk; entries before ``_head`` are spent
        self._log: List[Tuple[int, range, int]] = []
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
        ino, page = key
        chunk = self._chunks.get(ino, {}).get(page >> CHUNK_BITS)
        return chunk is not None and chunk[page & _MASK] >= 0

    def __len__(self) -> int:
        return self._resident

    def lru_keys(self) -> List[PageKey]:
        """Every resident page as ``(ino, page)``, least recent first."""
        chunks_of = self._chunks
        keys: List[PageKey] = []
        start = self._cursor
        for ino, run, stamp in islice(self._log, self._head, None):
            chunk = chunks_of.get(ino, {}).get(run.start >> CHUNK_BITS)
            if chunk is not None:
                for page in run[start:] if start else run:
                    if chunk[page & _MASK] == stamp:
                        keys.append((ino, page))
            start = 0
        return keys

    # -- lookup ----------------------------------------------------------

    def probe(self, ino: int, first: int, last: int) -> List[range]:
        """Probe pages ``first..last`` (inclusive) of one inode.

        Hits move to the LRU tail in page order; returns the missing
        pages as maximal runs in ascending order and updates the
        hit/miss stats.
        """
        stop = last + 1
        stats = self.stats
        chunks = self._chunks.get(ino)
        if chunks is None:
            if stop <= first:
                return []
            stats.misses += stop - first
            return [range(first, stop)]
        missing: List[range] = []
        hits: List[range] = []
        missed = 0
        page = first
        while page < stop:
            key = page >> CHUNK_BITS
            end = min(stop, (key + 1) << CHUNK_BITS)
            chunk = chunks.get(key)
            if chunk is None:
                gaps = ((page, end),)
            else:
                slot = page & _MASK
                stamps = chunk[slot:slot + end - page]
                if -1 not in stamps:
                    hits.append(range(page, end))
                    page = end
                    continue
                gaps = _gaps(stamps, page)
            for lo, hi in gaps:
                # the hits are the pages between the missing runs
                if lo > page:
                    hits.append(range(page, lo))
                missed += hi - lo
                if missing and missing[-1].stop == lo:
                    missing[-1] = range(missing[-1].start, hi)
                else:
                    missing.append(range(lo, hi))
                page = hi
            if page < end:
                hits.append(range(page, end))
            page = end
        if hits:
            self._touch(ino, chunks, hits)
        stats.hits += stop - first - missed
        stats.misses += missed
        return missing

    # -- population ------------------------------------------------------

    def fill(self, ino: int, runs: Sequence[range]) -> List[PageKey]:
        """Insert clean pages of one inode, given as disjoint runs in the
        order they are touched (``probe``'s missing runs, say); returns
        the dirty pages evicted to make room, as ``(ino, page)`` keys in
        LRU order."""
        if runs:
            chunks = self._chunks.get(ino)
            if chunks is None:
                chunks = self._chunks[ino] = {}
            self._touch(ino, chunks, runs)
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
        return self.fill(ino, _as_runs(pages))

    def _touch(self, ino: int, chunks: Chunks, runs: Iterable[range]) -> None:
        """Move the pages of ``runs`` (resident or not) to the LRU tail,
        in order, all under one fresh stamp."""
        stamp = self._next_stamp
        self._next_stamp = stamp + 1
        log = self._log
        new = logged = 0
        for run in runs:
            page, stop = run.start, run.stop
            while page < stop:
                key = page >> CHUNK_BITS
                end = min(stop, (key + 1) << CHUNK_BITS)
                slot = page & _MASK
                size = end - page
                chunk = chunks.get(key)
                if chunk is None:
                    chunk = chunks[key] = _EMPTY[:]
                    new += size
                else:
                    new += chunk[slot:slot + size].count(-1)
                chunk[slot:slot + size] = array("q", (stamp,)) * size
                log.append((ino, run if size == len(run) else range(page, end), stamp))
                logged += size
                page = end
        self._resident += new
        self._logged += logged
        if self._logged > COMPACT_RATIO * self._resident:
            self._compact()

    def _evict(self) -> List[PageKey]:
        """Drop least-recent pages down to capacity; returns the dirty ones."""
        chunks_of = self._chunks
        dirty_by_ino = self._dirty_by_ino
        log = self._log
        head, cursor = self._head, self._cursor
        excess = self._resident - self.capacity_pages
        self._resident -= excess
        writeback: List[PageKey] = []
        while excess:
            ino, run, stamp = log[head]
            end = len(run)
            chunks = chunks_of.get(ino)
            key = run.start >> CHUNK_BITS
            chunk = None if chunks is None else chunks.get(key)
            if chunk is None:
                cursor = end
            else:
                dirty = dirty_by_ino.get(ino)
                while cursor < end and excess:
                    page = run[cursor]
                    if chunk[page & _MASK] == stamp:
                        chunk[page & _MASK] = -1
                        excess -= 1
                        if dirty is not None and page in dirty:
                            dirty.discard(page)
                            writeback.append((ino, page))
                    cursor += 1
                if chunk == _EMPTY:
                    del chunks[key]
                    if not chunks:
                        del chunks_of[ino]
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
        live one become one entry per run, under the same stamp.
        """
        chunks_of = self._chunks
        log: List[Tuple[int, range, int]] = []
        start = self._cursor
        for ino, run, stamp in islice(self._log, self._head, None):
            chunk = chunks_of.get(ino, {}).get(run.start >> CHUNK_BITS)
            if chunk is not None:
                if start:
                    run, start = run[start:], 0
                slot = run.start & _MASK
                live = list(map(eq, chunk[slot:slot + len(run)], repeat(stamp)))
                alive = live.count(True)
                if alive == len(run):
                    log.append((ino, run, stamp))
                elif alive:
                    for kept in page_runs(list(compress(run, live))):
                        log.append((ino, kept, stamp))
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
        chunks = self._chunks.pop(ino, None)
        if chunks:
            self._resident -= sum(CHUNK - chunk.count(-1) for chunk in chunks.values())
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
        chunks_of = self._chunks
        for ino, page in doomed:
            chunks_of[ino][page >> CHUNK_BITS][page & _MASK] = -1
        for ino in {ino for ino, _ in doomed}:
            chunks = chunks_of[ino]
            for key in [key for key, chunk in chunks.items() if chunk == _EMPTY]:
                del chunks[key]
            if not chunks:
                del chunks_of[ino]
        self._resident -= len(doomed)
        return len(doomed)
