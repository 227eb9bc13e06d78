"""End-to-end pin of page-cache eviction under a trace replay.

Every other replay runs with the default 4 GiB cache, so nothing there
ever evicts.  Here a seeded corpus replays through ``Reconstructor`` onto
ext4 on flash with a 1,024-page cache (half the corpus), small enough that
both clean and dirty pages are evicted.  The digest covers the
reconstruction stats, the cache hits and misses, the clean and dirty
eviction counts, the device traffic of every tag (eviction writeback
included) and the finish time, so any change to LRU order, eviction
keys or hit accounting moves it.  The same corpus at the default cache
size bounds the bytes the cache holds per resident page.
"""

from __future__ import annotations

import gc
import hashlib
import json
import tracemalloc
from itertools import chain

import pytest

from repro.constants import BLOCK_SIZE, GIB, MIB
from repro.device import make_device
from repro.fs import make_filesystem
from repro.replay import PlacementPolicy, Reconstructor, TraceProfile, generate_ops

#: seed -> digest of the replay (see ``_replay``)
GOLDEN = {
    0: "7cd5603b0ef0f588",
    1: "476a467fd88b49b3",
}


class _EvictionCounter:
    """Counts the pages each fill/mark_dirty call evicted, clean or dirty,
    from the cache's public surface: its length, membership and the dirty
    keys the call returns.  ``fill`` takes page runs, ``mark_dirty``
    pages."""

    def __init__(self, cache) -> None:
        self.cache = cache
        self.clean = 0
        self.dirty = 0
        self._depth = 0
        cache.fill = self._wrap(cache.fill, chain.from_iterable)
        cache.mark_dirty = self._wrap(cache.mark_dirty, iter)

    def _wrap(self, inner, pages_of):
        def call(ino, pages):
            if self._depth:
                return inner(ino, pages)
            cache = self.cache
            new = sum(1 for page in set(pages_of(pages)) if (ino, page) not in cache)
            before = len(cache)
            self._depth += 1
            try:
                written = inner(ino, pages)
            finally:
                self._depth -= 1
            evicted = before + new - len(cache)
            self.dirty += len(written)
            self.clean += evicted - len(written)
            return written
        return call


def _corpus(seed: int):
    """The seeded corpus: 3,000 ops over 8 files of 1 MiB (2,048 pages)."""
    profile = TraceProfile(
        ops=3_000, seed=seed, files=8, file_bytes=1 * MIB,
        read_fraction=0.6, sequential_fraction=0.5,
        direct_fraction=0.3, fsync_every=24,
    )
    return generate_ops(profile)


def _replay(seed: int):
    device = make_device("flash", capacity=1 * GIB)
    fs = make_filesystem("ext4", device, page_cache_pages=1024)
    counter = _EvictionCounter(fs.page_cache)
    reconstructor = Reconstructor(fs, PlacementPolicy(seed=seed))
    finish = reconstructor.run(_corpus(seed), now=0.0)
    stats = fs.page_cache.stats
    body = {
        "reconstruction": reconstructor.stats.to_dict(),
        "cache": [stats.hits, stats.misses],
        "evicted": [counter.clean, counter.dirty],
        "traffic": {tag: vars(counter) for tag, counter in sorted(fs.tracer.by_tag.items())},
        "finish": repr(finish),
    }
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16], counter, fs


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_replay_under_eviction_is_pinned(seed):
    digest, counter, fs = _replay(seed)
    assert counter.clean > 0 and counter.dirty > 0
    assert len(fs.page_cache) <= fs.page_cache.capacity_pages
    assert digest == GOLDEN[seed]


#: bytes the page cache holds per resident page after the corpus
#: replays at the default cache size: 94.6 measured on CPython 3.11, of
#: which 32 are the eight files' stamp chunks, about 21 their dirty sets
#: and the rest the touch log.  Per-page ``{page: stamp}`` dicts held
#: 122.3 here.
HELD_BYTES_PER_PAGE = 104


def test_replay_at_default_size_holds_few_bytes_per_page():
    """The same corpus through the real read and write paths with the
    default cache, so nothing is evicted and every page stays resident:
    what the cache frees when it is dropped, per resident page."""
    tracemalloc.start()
    try:
        fs = make_filesystem("ext4", make_device("flash", capacity=1 * GIB))
        Reconstructor(fs, PlacementPolicy(seed=0)).run(_corpus(0), now=0.0)
        resident = len(fs.page_cache)
        before = tracemalloc.get_traced_memory()[0]
        fs.page_cache = None
        gc.collect()
        held = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert resident == 8 * MIB // BLOCK_SIZE
    assert held / resident <= HELD_BYTES_PER_PAGE, held / resident
