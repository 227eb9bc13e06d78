"""Page cache: LRU, dirty tracking, eviction, drop_caches."""

from repro.fs import PageCache


def test_probe_miss_then_hit():
    cache = PageCache(capacity_pages=10)
    assert cache.probe(1, 0, 0) == [0]
    cache.fill(1, [0])
    assert cache.probe(1, 0, 0) == []
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.hit_ratio == 0.5


def test_lru_eviction_order():
    cache = PageCache(capacity_pages=2)
    cache.fill(1, [0, 1])
    cache.probe(1, 0, 0)       # refresh page 0
    cache.fill(1, [2])         # evicts page 1 (least recent)
    assert (1, 0) in cache
    assert (1, 1) not in cache
    assert (1, 2) in cache


def test_dirty_eviction_reported():
    cache = PageCache(capacity_pages=2)
    cache.mark_dirty(1, [0])
    cache.fill(1, [1])
    evicted = cache.fill(1, [2])
    assert evicted == [(1, 0)]
    assert cache.dirty_count() == 0


def test_clean_eviction_silent():
    cache = PageCache(capacity_pages=1)
    cache.fill(1, [0])
    assert cache.fill(1, [1]) == []


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
    cache.fill(1, [0, 1])
    cache.mark_dirty(1, [2])
    dropped = cache.drop_clean()
    assert dropped == 2
    assert (1, 2) in cache
    assert (1, 0) not in cache
