"""The LSM store substrate."""

import pytest

from repro.constants import GIB, KIB, MIB
from repro.device import make_device
from repro.fs import make_filesystem
from repro.workloads.kvstore import L0_COMPACTION_TRIGGER, LsmConfig, LsmStore, _parse_blocks, _LEN


@pytest.fixture
def store(fs):
    return LsmStore(fs, LsmConfig(block_size=16 * KIB, memtable_bytes=64 * KIB))


def test_put_get_memtable(store):
    now = store.put(b"k1", b"v1")
    _, value = store.get(b"k1", now)
    assert value == b"v1"


def test_get_missing(store):
    _, value = store.get(b"nope")
    assert value is None


def test_flush_creates_sst_and_values_survive(store):
    now = 0.0
    for i in range(50):
        now = store.put(b"key%04d" % i, b"value%04d" % i, now)
    now = store.flush(now)
    assert store.memtable == {}
    assert len(store.files()) >= 1
    for i in range(50):
        now, value = store.get(b"key%04d" % i, now)
        assert value == b"value%04d" % i


def test_automatic_flush_on_threshold(store):
    now = 0.0
    for i in range(200):
        now = store.put(b"k%06d" % i, b"x" * 1024, now)
    assert store.stats.flushes >= 1


def test_newest_value_wins_across_levels(store):
    now = 0.0
    now = store.put(b"dup", b"old", now)
    now = store.flush(now)
    now = store.put(b"dup", b"new", now)
    now = store.flush(now)
    now, value = store.get(b"dup", now)
    assert value == b"new"


def test_compaction_merges_and_deletes_old_files(store):
    now = 0.0
    for round_idx in range(L0_COMPACTION_TRIGGER):
        for i in range(30):
            now = store.put(b"key%04d" % i, b"round%d" % round_idx, now)
        now = store.flush(now)
    assert store.stats.compactions >= 1
    assert store.level0 == []
    assert len(store.level1) >= 1
    now, value = store.get(b"key0000", now)
    assert value == b"round%d" % (L0_COMPACTION_TRIGGER - 1)


def test_wal_truncated_after_flush(store, fs):
    now = 0.0
    for i in range(50):
        now = store.put(b"key%04d" % i, b"v" * 100, now)
    now = store.flush(now)
    assert fs.inode_of(store.wal_path).size == 0


def test_get_reads_one_block(store, fs):
    now = 0.0
    for i in range(100):
        now = store.put(b"key%04d" % i, b"v" * 500, now)
    now = store.flush(now)
    fs.drop_caches()
    reads_before = fs.device.stats.read_bytes
    now, _ = store.get(b"key0050", now)
    assert fs.device.stats.read_bytes - reads_before == store.config.block_size


def test_parse_blocks_roundtrip():
    block_size = 4096
    items = [(b"a", b"1" * 100), (b"b", b"2" * 3000), (b"c", b"3" * 500)]
    blocks = bytearray()
    pos = 0
    for k, v in items:
        rec = _LEN.pack(len(k), len(v)) + k + v
        if pos % block_size + len(rec) > block_size:
            pad = block_size - pos % block_size
            blocks.extend(b"\x00" * pad)
            pos += pad
        blocks.extend(rec)
        pos += len(rec)
    blocks.extend(b"\x00" * (block_size - len(blocks) % block_size))
    assert _parse_blocks(bytes(blocks), block_size) == items


def test_block_alignment_validated(fs):
    with pytest.raises(Exception):
        LsmStore(fs, LsmConfig(block_size=5000))
