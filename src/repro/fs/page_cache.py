"""LRU page cache.

Buffered reads fill it, buffered writes dirty it, fsync/writeback cleans
it.  O_DIRECT bypasses it entirely (as in Linux).  Capacity is configurable
so experiments can model memory pressure; eviction of a dirty page reports
it to the caller for writeback.

Every call that touches pages names one inode and a run, runs or list
of its page indices (``probe(ino, first, last)``, ``fill(ino, runs)``,
``mark_dirty(ino, pages)``, ``clean(ino, runs)``), and each does its
per-page work inside C calls, not in a Python loop.  ``probe`` returns
the missing pages as maximal ascending ``range`` runs, and ``fill``
takes such runs, so a buffered miss carries its pages from the probe to
the fill without a page index as a Python int:

- **Residency.** Each inode has chunks of :data:`CHUNK` stamps, one
  ``array('q')`` per chunk of its page index space, allocated on first
  touch (the layout of ``device/ftl.py``'s l2p map), so a sparse page
  index never allocates up to itself.  A resident page holds the stamp
  of its latest touch; -1 means not resident.  A chunk is freed once
  eviction leaves it empty.
- **Touches.** A touching call (the hits of a probe, a fill, a
  mark-dirty) takes one stamp from a counter and writes it over all its
  pages, one slice fill per run of consecutive ascending pages.  Each
  run goes into the touch log, split where it crosses a chunk boundary.
  The log is one flat ``array('q')`` holding four ints per entry,
  ``ino, start, stop, stamp``, for the pages ``start..stop - 1``, so it
  holds no Python object per entry.  An ascending list is split into
  its maximal runs; a list in any other order becomes one run per page,
  in its own order, with a repeated page kept only at its last
  occurrence.
- **Liveness.** A page of an entry is live while its stamp is still the
  entry's stamp.  A later touch restamps it, so each resident page is
  live in exactly one entry, and the live pages of the log, in log
  order, are the LRU order.
- **Eviction.** Eviction walks the log from a cursor (a page offset) in
  its head entry and drops live pages until the cache is back under
  capacity; dirty victims return as ``(ino, page)`` keys in LRU order.
- **Compaction.** Once the log holds more than ``COMPACT_RATIO`` times
  as many pages as are resident, it is rebuilt from the live runs of its
  entries, which keep their stamps; amortised O(1) per touch.
- **Dirtiness.** Each inode with dirty pages has one ``bytearray`` of
  :data:`CHUNK` dirty flags per stamp chunk that holds a dirty page,
  allocated on first dirtying and freed once it holds no dirty page;
  an inode with none has no entry.  :meth:`PageCache.dirty_runs` reads an
  inode's dirty pages back as ascending maximal runs (``bytearray.find``
  per run edge, runs merged across chunk boundaries), which is what
  fsync and sync write back, and ``drop_clean`` frees a chunk with no
  dirty flag in one step.

Dropping an inode (``invalidate_inode``) pops its chunks and its dirty
flags; its log entries die by the stamp check, since a refilled inode
only holds newer stamps.
"""

from __future__ import annotations

from array import array
from itertools import compress, count, islice, repeat
from operator import eq, lt, ne, sub
from typing import Dict, Iterable, List, Sequence, Tuple

from ..types import Record

PageKey = Tuple[int, int]  # (ino, page index)

#: pages per stamp chunk (``device/ftl.py``'s ``L2P_CHUNK``)
CHUNK_BITS = 10
CHUNK = 1 << CHUNK_BITS
_MASK = CHUNK - 1
#: a chunk with no page resident; never mutated
_EMPTY = array("q", [-1]) * CHUNK
#: a chunk's worth of set dirty flags
_ONES = b"\x01" * CHUNK

#: the touch log is compacted when it holds more than this many times as
#: many pages as are resident.  A buffered sequential read touches each
#: page twice (the readahead fill, then the read that hits it), so a
#: ratio of 2 would compact on a first pass; 3 compacts once pages are
#: re-read, and holds the log to three pages per resident page
COMPACT_RATIO = 3

Chunks = Dict[int, array]  # chunk number -> CHUNK stamps, -1 if not resident
Flags = Dict[int, bytearray]  # chunk number -> CHUNK dirty flags


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


def _flag_runs(flags: bytes, first: int, flag: int = 1) -> List[Tuple[int, int]]:
    """The ``(start, stop)`` runs of bytes equal to ``flag`` (0 or 1) in
    ``flags``, the flags of pages ``first..``; one C-level search per run
    edge."""
    size = len(flags)
    other = flag ^ 1
    runs = []
    lo = flags.find(flag)
    while lo >= 0:
        hi = flags.find(other, lo)
        if hi < 0:
            hi = size
        runs.append((first + lo, first + hi))
        lo = flags.find(flag, hi)
    return runs


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
        #: ``ino, start, stop, stamp`` per run of a touching call, oldest
        #: first, each run inside one chunk; entries before entry number
        #: ``_head`` are spent
        self._log = array("q")
        self._head = 0
        #: offset into the head entry's run of the next page eviction
        #: looks at
        self._cursor = 0
        #: pages held by the log's entries, spent ones included
        self._logged = 0
        self._next_stamp = 0
        self._resident = 0
        #: per inode with dirty pages, its dirty flag chunks (dirty pages
        #: are always resident)
        self._dirty_flags: Dict[int, Flags] = {}
        self._dirty_total = 0
        self.stats = PageCacheStats()

    def __contains__(self, key: PageKey) -> bool:
        ino, page = key
        chunk = self._chunks.get(ino, {}).get(page >> CHUNK_BITS)
        return chunk is not None and chunk[page & _MASK] >= 0

    def __len__(self) -> int:
        return self._resident

    def _entries(self) -> Iterable[Tuple[int, int, int, int]]:
        """The log's unspent entries as ``(ino, start, stop, stamp)``,
        the head entry's run starting at the cursor."""
        entries = islice(self._log, self._head << 2, None)
        skip = self._cursor
        for ino, start, stop, stamp in zip(entries, entries, entries, entries):
            yield ino, start + skip, stop, stamp
            skip = 0

    def lru_keys(self) -> List[PageKey]:
        """Every resident page as ``(ino, page)``, least recent first."""
        chunks_of = self._chunks
        keys: List[PageKey] = []
        for ino, start, stop, stamp in self._entries():
            chunk = chunks_of.get(ino, {}).get(start >> CHUNK_BITS)
            if chunk is not None:
                for page in range(start, stop):
                    if chunk[page & _MASK] == stamp:
                        keys.append((ino, page))
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
            end = (key + 1) << CHUNK_BITS
            if end > stop:
                end = stop
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
                gaps = _flag_runs(bytes(map(eq, stamps, repeat(-1))), page)
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
        runs = _as_runs(pages)
        if runs:
            flags_of = self._dirty_flags.get(ino)
            if flags_of is None:
                flags_of = self._dirty_flags[ino] = {}
            new = 0
            for run in runs:
                page, stop = run.start, run.stop
                while page < stop:
                    key = page >> CHUNK_BITS
                    end = (key + 1) << CHUNK_BITS
                    if end > stop:
                        end = stop
                    slot = page & _MASK
                    size = end - page
                    flags = flags_of.get(key)
                    if flags is None:
                        flags = flags_of[key] = bytearray(CHUNK)
                        new += size
                    else:
                        new += size - flags.count(1, slot, slot + size)
                    flags[slot:slot + size] = _ONES[:size]
                    page = end
            self._dirty_total += new
        return self.fill(ino, runs)

    def _touch(self, ino: int, chunks: Chunks, runs: Iterable[range]) -> None:
        """Move the pages of ``runs`` (resident or not) to the LRU tail,
        in order, all under one fresh stamp."""
        stamp = self._next_stamp
        self._next_stamp = stamp + 1
        log_entry = self._log.fromlist
        new = logged = 0
        for run in runs:
            page, stop = run.start, run.stop
            while page < stop:
                key = page >> CHUNK_BITS
                end = (key + 1) << CHUNK_BITS
                if end > stop:
                    end = stop
                slot = page & _MASK
                size = end - page
                chunk = chunks.get(key)
                if chunk is None:
                    chunk = chunks[key] = _EMPTY[:]
                    new += size
                else:
                    new += chunk[slot:slot + size].count(-1)
                chunk[slot:slot + size] = array("q", (stamp,)) * size
                log_entry([ino, page, end, stamp])
                logged += size
                page = end
        self._resident += new
        self._logged += logged
        if self._logged > COMPACT_RATIO * self._resident:
            self._compact()

    def _evict(self) -> List[PageKey]:
        """Drop least-recent pages down to capacity; returns the dirty ones."""
        chunks_of = self._chunks
        flags_of_ino = self._dirty_flags
        log = self._log
        head, cursor = self._head, self._cursor
        excess = self._resident - self.capacity_pages
        self._resident -= excess
        writeback: List[PageKey] = []
        while excess:
            at = head << 2
            ino, start, stop, stamp = log[at], log[at + 1], log[at + 2], log[at + 3]
            chunks = chunks_of.get(ino)
            key = start >> CHUNK_BITS
            chunk = None if chunks is None else chunks.get(key)
            if chunk is None:
                cursor = stop - start
            else:
                base = key << CHUNK_BITS
                flags_of = flags_of_ino.get(ino)
                flags = None if flags_of is None else flags_of.get(key)
                before = len(writeback)
                slot, end = start - base + cursor, stop - base
                while slot < end and excess:
                    if chunk[slot] == stamp:
                        chunk[slot] = -1
                        excess -= 1
                        if flags is not None and flags[slot]:
                            flags[slot] = 0
                            writeback.append((ino, base + slot))
                    slot += 1
                cursor = slot + base - start
                if chunk == _EMPTY:
                    del chunks[key]
                    if not chunks:
                        del chunks_of[ino]
                if len(writeback) > before and 1 not in flags:
                    del flags_of[key]
                    if not flags_of:
                        del flags_of_ino[ino]
            if cursor == stop - start:
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
        log = array("q")
        log_entry = log.fromlist
        for ino, start, stop, stamp in self._entries():
            chunks = chunks_of.get(ino)
            chunk = None if chunks is None else chunks.get(start >> CHUNK_BITS)
            if chunk is not None:
                slot = start & _MASK
                stamps = chunk[slot:slot + stop - start]
                alive = stamps.count(stamp)
                if alive == stop - start:
                    log_entry([ino, start, stop, stamp])
                elif alive:
                    for lo, hi in _flag_runs(bytes(map(eq, stamps, repeat(stamp))), start):
                        log_entry([ino, lo, hi, stamp])
        self._log = log
        self._head = self._cursor = 0
        self._logged = self._resident

    # -- writeback -------------------------------------------------------

    def dirty_runs(self, ino: int) -> List[range]:
        """The dirty pages of one inode as maximal ascending runs."""
        flags_of = self._dirty_flags.get(ino)
        runs: List[range] = []
        if flags_of is None:
            return runs
        for key in sorted(flags_of):
            for lo, hi in _flag_runs(flags_of[key], key << CHUNK_BITS):
                if runs and runs[-1].stop == lo:
                    runs[-1] = range(runs[-1].start, hi)
                else:
                    runs.append(range(lo, hi))
        return runs

    def dirty_inodes(self) -> List[int]:
        """The inodes with dirty pages, ascending."""
        return sorted(self._dirty_flags)

    def clean(self, ino: int, runs: Iterable[range]) -> None:
        """Mark the pages of ``runs`` of one inode clean (they stay
        resident)."""
        flags_of = self._dirty_flags.get(ino)
        if flags_of is None:
            return
        cleaned = 0
        for run in runs:
            page, stop = run.start, run.stop
            while page < stop:
                key = page >> CHUNK_BITS
                end = (key + 1) << CHUNK_BITS
                if end > stop:
                    end = stop
                flags = flags_of.get(key)
                if flags is not None:
                    slot = page & _MASK
                    size = end - page
                    dirty = flags.count(1, slot, slot + size)
                    if dirty:
                        cleaned += dirty
                        flags[slot:slot + size] = bytes(size)
                        if 1 not in flags:
                            del flags_of[key]
                page = end
        self._dirty_total -= cleaned
        if not flags_of:
            del self._dirty_flags[ino]

    def invalidate_inode(self, ino: int) -> None:
        """Drop every page of an inode (unlink)."""
        chunks = self._chunks.pop(ino, None)
        if chunks:
            self._resident -= sum(CHUNK - chunk.count(-1) for chunk in chunks.values())
        flags_of = self._dirty_flags.pop(ino, None)
        if flags_of:
            self._dirty_total -= sum(flags.count(1) for flags in flags_of.values())

    def dirty_count(self) -> int:
        return self._dirty_total

    def drop_clean(self) -> int:
        """Evict every clean page (``drop_caches``); returns count dropped.

        A chunk with no dirty page goes in one step; in the others only
        the runs of clean slots are cleared."""
        chunks_of = self._chunks
        flags_of_ino = self._dirty_flags
        dropped = 0
        for ino in list(chunks_of):
            chunks = chunks_of[ino]
            flags_of = flags_of_ino.get(ino)
            if flags_of is None:
                dropped += sum(CHUNK - chunk.count(-1) for chunk in chunks.values())
                del chunks_of[ino]
                continue
            for key in list(chunks):
                chunk = chunks[key]
                flags = flags_of.get(key)
                if flags is None:
                    dropped += CHUNK - chunk.count(-1)
                    del chunks[key]
                else:
                    # a chunk that holds a dirty page stays
                    for lo, hi in _flag_runs(flags, 0, 0):
                        dropped += hi - lo - chunk[lo:hi].count(-1)
                        chunk[lo:hi] = _EMPTY[lo:hi]
        self._resident -= dropped
        return dropped
