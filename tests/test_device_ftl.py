"""Page-mapping FTL: mapping, striping, invalidation, GC, wear."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.device.ftl import PageMappingFtl
from repro.errors import DeviceError


def small_ftl(logical_pages=1024, channels=4, pages_per_block=16):
    return PageMappingFtl(
        logical_pages=logical_pages,
        channels=channels,
        pages_per_block=pages_per_block,
        overprovision=0.25,
    )


def test_unwritten_pages_stripe_by_address():
    ftl = small_ftl(channels=4)
    assert [ftl.channel_of(i) for i in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]


def test_writes_stripe_round_robin():
    ftl = small_ftl(channels=4)
    result = ftl.write(list(range(8)))
    assert result.pages_per_channel == {0: 2, 1: 2, 2: 2, 3: 2}


def test_mapping_follows_write():
    ftl = small_ftl(channels=4)
    ftl.write([100])  # first write goes to channel 0
    assert ftl.channel_of(100) == 0
    ftl.write([100])  # rewrite lands on the next channel
    assert ftl.channel_of(100) == 1


def test_overwrite_invalidates_old_page():
    ftl = small_ftl()
    ftl.write([5])
    block, _ = ftl.mapping[5]
    assert block.valid_count == 1
    ftl.write([5])
    assert block.valid_count == 0


def test_invalidate_discard():
    ftl = small_ftl()
    ftl.write([1, 2, 3])
    dropped = ftl.invalidate([1, 2, 3, 4])
    assert dropped == 3
    assert 1 not in ftl.mapping
    # discarded pages read as address-striped again
    assert ftl.channel_of(1) == 1


def test_write_beyond_capacity_rejected():
    ftl = small_ftl(logical_pages=10)
    with pytest.raises(DeviceError):
        ftl.write([10])


def test_channel_array_holds_one_byte_per_page():
    assert PageMappingFtl(logical_pages=1024, channels=256).channels == 256
    with pytest.raises(DeviceError, match="at most 256 channels"):
        PageMappingFtl(logical_pages=1024, channels=257)


def test_gc_reclaims_invalid_pages():
    ftl = small_ftl(logical_pages=128, channels=1, pages_per_block=8)
    # overwrite a small working set far beyond physical capacity
    for _ in range(40):
        ftl.write(list(range(16)))
    assert ftl.total_erases > 0
    assert ftl.write_amplification >= 1.0
    # mapping stays consistent through GC
    for lpn in range(16):
        block, slot = ftl.mapping[lpn]
        assert block.pages[slot] == lpn


def test_write_amplification_grows_under_pressure():
    """Cold data interleaved with hot churn forces GC relocations."""
    tight = small_ftl(logical_pages=64, channels=1, pages_per_block=8)
    # lay down cold (0..31) and hot (32..47) pages interleaved, so every
    # erase block holds some never-invalidated cold pages
    interleaved = [p for pair in zip(range(32), range(32, 48)) for p in pair]
    tight.write(interleaved + list(range(16, 32)))
    for _ in range(60):
        tight.write(list(range(32, 48)))  # churn only the hot set
    assert tight.total_erases > 0
    assert tight.write_amplification > 1.0
    assert tight.relocated_pages_total > 0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 63), min_size=1, max_size=300))
def test_mapping_always_consistent(lpns):
    """Model check: after any write sequence, every mapped lpn's slot
    holds that lpn, and valid counts match the mapping."""
    ftl = small_ftl(logical_pages=64, channels=2, pages_per_block=8)
    for lpn in lpns:
        ftl.write([lpn])
    for lpn, (block, slot) in ftl.mapping.items():
        assert block.pages[slot] == lpn
    assert len(ftl.mapping) == len(set(lpns))
    assert ftl.host_pages_written == len(lpns)


# -- failure paths ------------------------------------------------------


def assert_ftl_consistent(ftl):
    """Mapping, valid counts and block membership agree."""
    mapping = ftl.mapping  # a view built on each access
    live = {}  # id(block) -> live slots: those the mapping points at
    for lpn, (block, slot) in mapping.items():
        assert block.pages[slot] == lpn, lpn
        live[id(block)] = live.get(id(block), 0) + 1
    for lpn, channel in enumerate(ftl._chan):
        entry = mapping.get(lpn)
        assert channel == (entry[0].channel if entry else lpn % ftl.channels), lpn
    assert all(lpn < len(ftl._chan) for lpn in mapping)
    for channel in range(ftl.channels):
        active = ftl._active[channel]
        homes = ([active] if active is not None else []) + \
            ftl._sealed[channel] + ftl._free_pool[channel]
        for block in homes:
            assert block.valid_count == live.get(id(block), 0)
        # every created block lives in exactly one of active/sealed/free
        assert len({id(b) for b in homes}) == len(homes) == ftl._created_blocks[channel]


def drive_to_failure(seed, **kwargs):
    """Random write/invalidate stream until the FTL raises; returns the error."""
    ftl = PageMappingFtl(**kwargs)
    logical = ftl.logical_pages
    rng = random.Random(seed)
    for _ in range(5000):
        start = rng.randrange(logical)
        try:
            if rng.random() < 0.85:
                ftl.write([min(logical - 1, start + i) for i in range(rng.randint(1, 12))])
            else:
                ftl.invalidate(range(start, min(logical, start + rng.randint(1, 8))))
        except DeviceError as exc:
            return ftl, str(exc)
    raise AssertionError("stream never failed")


def assert_recovers(ftl):
    """Discarding everything lets GC reclaim space: the FTL stays usable."""
    assert ftl.invalidate(range(ftl.logical_pages)) > 0
    assert ftl.mapping == {}
    for _ in range(4):
        ftl.write(range(ftl.logical_pages // 2))
    assert_ftl_consistent(ftl)


@pytest.mark.parametrize("seed,kwargs", [
    (0, dict(logical_pages=512, channels=8, pages_per_block=16)),
    (2, dict(logical_pages=256, channels=4, pages_per_block=8, overprovision=0.0)),
])
def test_gc_wedge_leaves_mapping_consistent(seed, kwargs):
    ftl, error = drive_to_failure(seed, **kwargs)
    assert "wedged during GC" in error
    assert_ftl_consistent(ftl)
    assert_recovers(ftl)


def test_out_of_space_leaves_mapping_consistent():
    # no overprovisioning: 64 pages fill all 8 blocks with valid data, so
    # GC finds no victim and the rewrite has nowhere to go
    ftl = PageMappingFtl(logical_pages=64, channels=1, pages_per_block=8, overprovision=0.0)
    ftl.write(range(64))
    with pytest.raises(DeviceError, match="out of space"):
        ftl.write([0])
    assert_ftl_consistent(ftl)
    block, slot = ftl.mapping[0]
    assert block.pages[slot] == 0  # the old copy is still the live one
    assert_recovers(ftl)


def test_page_numbers_must_fit_in_32_bits():
    # 2**31 logical pages with 7 % spare: physical pages pass 2**31
    with pytest.raises(DeviceError, match="32 bits"):
        PageMappingFtl(logical_pages=1 << 31)
    assert PageMappingFtl(logical_pages=1 << 30).blocks_per_channel > 0


def test_negative_lpn_rejected():
    ftl = small_ftl()
    ftl.write([15])
    with pytest.raises(DeviceError, match="negative"):
        ftl.write([-1])
    assert ftl.host_pages_written == 1
    assert_ftl_consistent(ftl)


def test_l2p_costs_under_40_bytes_per_mapped_page():
    """131,072 lpns written in 8-page runs, then rewritten in 16-page
    runs: the chunked 32-bit l2p, the slot arrays and the channel bytes
    stay under 40 B per mapped page (a tuple-per-page dict costs ~180)."""
    import tracemalloc

    pages = 131_072
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ftl = PageMappingFtl(logical_pages=2 * pages)
        for lpn in range(0, pages, 8):
            ftl.write(range(lpn, lpn + 8))
        for lpn in range(0, pages, 16):
            ftl.write(range(lpn, lpn + 16))
        assert ftl.channel_of(pages - 1) == (ftl.host_pages_written - 1) % ftl.channels
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert used / pages <= 40, used / pages
