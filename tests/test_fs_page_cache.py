"""Page cache: LRU, dirty tracking, eviction, drop_caches."""

from repro.fs import PageCache
from repro.fs.page_cache import CHUNK


def test_probe_miss_then_hit():
    cache = PageCache(capacity_pages=10)
    assert cache.probe(1, 0, 0) == [range(0, 1)]
    cache.fill(1, [range(0, 1)])
    assert cache.probe(1, 0, 0) == []
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.hit_ratio == 0.5


def test_lru_eviction_order():
    cache = PageCache(capacity_pages=2)
    cache.fill(1, [range(0, 2)])
    cache.probe(1, 0, 0)       # refresh page 0
    cache.fill(1, [range(2, 3)])  # evicts page 1 (least recent)
    assert (1, 0) in cache
    assert (1, 1) not in cache
    assert (1, 2) in cache


def test_dirty_eviction_reported():
    cache = PageCache(capacity_pages=2)
    cache.mark_dirty(1, [0])
    cache.fill(1, [range(1, 2)])
    evicted = cache.fill(1, [range(2, 3)])
    assert evicted == [(1, 0)]
    assert cache.dirty_count() == 0


def test_clean_eviction_silent():
    cache = PageCache(capacity_pages=1)
    cache.fill(1, [range(0, 1)])
    assert cache.fill(1, [range(1, 2)]) == []


def test_dirty_pages_sorted_per_inode():
    cache = PageCache()
    cache.mark_dirty(1, [5])
    cache.mark_dirty(2, [0])
    cache.mark_dirty(1, [2])
    assert cache.dirty_pages(1) == [2, 5]
    assert cache.dirty_pages(2) == [0]
    cache.clean(1, [2, 5])
    assert cache.dirty_pages(1) == []


def test_invalidate_inode():
    cache = PageCache()
    cache.mark_dirty(1, [0])
    cache.mark_dirty(2, [0])
    cache.invalidate_inode(1)
    assert (1, 0) not in cache
    assert (2, 0) in cache
    assert cache.dirty_pages(1) == []


def test_drop_clean_keeps_dirty():
    cache = PageCache()
    cache.fill(1, [range(0, 2)])
    cache.mark_dirty(1, [2])
    dropped = cache.drop_clean()
    assert dropped == 2
    assert (1, 2) in cache
    assert (1, 0) not in cache


def test_probe_returns_maximal_ascending_missing_runs():
    """Missing pages come back as maximal runs, a run that crosses a
    stamp-chunk boundary as one; the hits between them are counted and
    refreshed, and ``fill`` takes the runs as they are."""
    cache = PageCache()
    assert cache.probe(1, 3, 2) == []
    assert cache.probe(1, 0, 4) == [range(0, 5)]
    cache.fill(1, [range(2, 5), range(8, 10), range(CHUNK + 2, CHUNK + 3)])
    cache.stats.hits = cache.stats.misses = 0
    missing = cache.probe(1, 0, 12)
    assert missing == [range(0, 2), range(5, 8), range(10, 13)]
    assert (cache.stats.hits, cache.stats.misses) == (5, 8)
    assert cache.probe(1, CHUNK - 3, CHUNK + 3) == [
        range(CHUNK - 3, CHUNK + 2), range(CHUNK + 3, CHUNK + 4),
    ]
    assert cache.fill(1, missing) == []
    assert cache.probe(1, 0, 12) == []
    assert list(cache.lru_keys())[-13:] == [(1, page) for page in range(13)]
