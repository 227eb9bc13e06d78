"""MicroSD: command serialization and the demand mapping cache."""

from repro.block import IoOp
from repro.constants import GIB, KIB, MIB
from repro.device.microsd import MicroSdDevice, MicroSdParams


def read(offset, length=4 * KIB):
    return (offset, length)


def test_per_command_overhead_dominates_small_io():
    card = MicroSdDevice(capacity=1 * GIB)
    one = card.submit(IoOp.READ, [read(0, 128 * KIB)], 0.0)
    card2 = MicroSdDevice(capacity=1 * GIB)
    split = card2.submit(IoOp.READ, [read(i * 8 * KIB) for i in range(32)], 0.0)
    # 32 serialized command overheads vs one
    assert split.latency > 2.0 * one.latency


def test_mapping_cache_hits_on_locality():
    card = MicroSdDevice(capacity=1 * GIB)
    card.submit(IoOp.READ, [read(0)], 0.0)
    card.submit(IoOp.READ, [read(4 * KIB)], 1.0)  # same mapping region
    assert card.mapping_misses == 1
    assert card.mapping_hits == 1


def test_mapping_cache_misses_on_spread():
    params = MicroSdParams(mapping_cache_entries=4)
    card = MicroSdDevice(capacity=1 * GIB, params=params)
    for i in range(8):
        card.submit(IoOp.READ, [read(i * 2 * MIB)], float(i))  # distinct regions
    assert card.mapping_misses == 8
    # LRU evicted early entries: re-reading region 0 misses again
    card.submit(IoOp.READ, [read(0)], 100.0)
    assert card.mapping_misses == 9


def test_mapping_cache_lru_recency():
    params = MicroSdParams(mapping_cache_entries=2)
    card = MicroSdDevice(capacity=1 * GIB, params=params)
    card.submit(IoOp.READ, [read(0)], 0.0)              # region 0
    card.submit(IoOp.READ, [read(2 * MIB)], 1.0)        # region 2
    card.submit(IoOp.READ, [read(0)], 2.0)              # touch region 0 (hit)
    card.submit(IoOp.READ, [read(4 * MIB)], 3.0)        # evicts region 2
    card.submit(IoOp.READ, [read(0)], 4.0)              # still cached
    assert card.mapping_hits == 2


def test_writes_slower_than_reads():
    card = MicroSdDevice(capacity=1 * GIB)
    r = card.submit(IoOp.READ, [read(0, 1 * MIB)], 0.0)
    card2 = MicroSdDevice(capacity=1 * GIB)
    w = card2.submit(IoOp.WRITE, [(0, 1 * MIB)], 0.0)
    assert w.latency > r.latency
