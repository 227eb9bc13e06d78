"""Request splitting and merging — the structural core of the paper."""

from typing import Iterable, List, Tuple

from hypothesis import given, strategies as st

from repro.block import BlockScheduler, IoOp, split_ranges
from repro.constants import BLOCK_SIZE, GIB, KIB, MAX_REQUEST_SIZE
from repro.device import make_device


def merge_adjacent(ranges: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Reference request merging: coalesce back-to-back disk ranges.

    Ranges merge only when the end of one equals the start of the next,
    input order is kept and zero-length ranges are dropped.
    ``split_ranges`` must equal this followed by capping each run.
    """
    merged: List[Tuple[int, int]] = []
    for offset, length in ranges:
        if length <= 0:
            continue
        if merged and merged[-1][0] + merged[-1][1] == offset:
            merged[-1] = (merged[-1][0], merged[-1][1] + length)
        else:
            merged.append((offset, length))
    return merged


def cap(ranges: Iterable[Tuple[int, int]], size: int) -> List[Tuple[int, int]]:
    """Cut each range into ``size``-byte pieces plus a remainder."""
    out = []
    for offset, length in ranges:
        while length > size:
            out.append((offset, size))
            offset += size
            length -= size
        out.append((offset, length))
    return out


def test_contiguous_file_one_command():
    commands = split_ranges([(0, 128 * KIB)])
    assert commands == [(0, 128 * KIB)]


def test_fragmented_file_splits():
    ranges = [(i * 64 * KIB, 4 * KIB) for i in range(32)]
    commands = split_ranges(ranges)
    assert len(commands) == 32


def test_adjacent_ranges_merge_back():
    ranges = [(0, 4 * KIB), (4 * KIB, 4 * KIB), (8 * KIB, 4 * KIB)]
    commands = split_ranges(ranges)
    assert commands == [(0, 12 * KIB)]


def test_merge_is_order_sensitive():
    # non-adjacent submission order is preserved, not sorted
    ranges = [(8 * KIB, 4 * KIB), (0, 4 * KIB)]
    assert merge_adjacent(ranges) == [(8 * KIB, 4 * KIB), (0, 4 * KIB)]
    assert split_ranges(ranges) == ranges


def test_max_request_cap():
    commands = split_ranges([(0, 2 * MAX_REQUEST_SIZE + KIB)])
    assert len(commands) == 3
    assert commands[0][1] == MAX_REQUEST_SIZE
    assert commands[-1][1] == KIB


def test_zero_length_ranges_dropped():
    assert merge_adjacent([(0, 0), (4 * KIB, 4 * KIB)]) == [(4 * KIB, 4 * KIB)]
    assert split_ranges([(0, 0), (4 * KIB, 4 * KIB)]) == [(4 * KIB, 4 * KIB)]


def test_tag_propagates():
    """A batch's tag reaches the tracer with every one of its commands."""
    scheduler = BlockScheduler(make_device("optane", capacity=1 * GIB))
    commands = split_ranges([(0, KIB), (64 * KIB, KIB)])
    scheduler.submit(IoOp.READ, commands, 0.0, "workload")
    counter = scheduler.tracer.tag("workload")
    assert (counter.read_bytes, counter.read_commands) == (2 * KIB, 2)


range_lists = st.lists(
    st.tuples(
        st.integers(0, 1000).map(lambda b: b * BLOCK_SIZE),
        st.integers(0, 64).map(lambda b: b * BLOCK_SIZE),
    ),
    min_size=1,
    max_size=30,
)


@given(range_lists)
def test_split_conserves_bytes(ranges):
    commands = split_ranges(ranges)
    assert sum(length for _, length in commands) == sum(length for _, length in ranges)


@given(range_lists)
def test_split_respects_cap_and_contiguity(ranges):
    commands = split_ranges(ranges)
    for _, length in commands:
        assert 0 < length <= MAX_REQUEST_SIZE
    # no two adjacent output commands could have been merged further
    for (a_offset, a_length), (b_offset, _) in zip(commands, commands[1:]):
        if a_offset + a_length == b_offset:
            assert a_length == MAX_REQUEST_SIZE


@given(range_lists)
def test_split_covers_exact_ranges(ranges):
    commands = split_ranges(ranges)
    # re-merging the output reproduces the merged input
    assert merge_adjacent(commands) == merge_adjacent(ranges)


@given(range_lists, st.sampled_from((BLOCK_SIZE, 3 * BLOCK_SIZE, MAX_REQUEST_SIZE)))
def test_split_is_merge_then_cap(ranges, size):
    """The one-pass splitter equals the reference merge followed by capping."""
    assert split_ranges(ranges, size) == cap(merge_adjacent(ranges), size)
