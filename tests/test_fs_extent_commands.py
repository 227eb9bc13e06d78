"""Differential test: ``ExtentMap.commands`` against the three-pass composition.

A read's device commands used to be built in three list passes:
``map_range`` pieces with holes, ``disk_ranges`` without them, then
``split_ranges`` merged and capped.  ``three_pass`` keeps that
composition as the reference.  Seeded extent maps with holes, extents
that are disk-adjacent across a hole, long extents and scattered ones
are read through single and multi-span calls (ascending page runs, as a
buffered miss makes them, pairs of spans that meet a hole's edges, and
spans in any order), and the command lists must be identical.  The streams are checked to reach
the cases that matter: a merge across a span boundary, and a cap that
starts mid-extent.
"""

import random

import pytest

from repro.block.splitter import split_ranges
from repro.constants import BLOCK_SIZE, MAX_REQUEST_SIZE
from repro.fs.extent_map import Extent, ExtentMap

B = BLOCK_SIZE
#: blocks in one ``MAX_REQUEST_SIZE`` command
CAP = MAX_REQUEST_SIZE // B
FILE_BLOCKS = 16 * CAP


def three_pass(extent_map, spans):
    """The reference: ``split_ranges`` over the spans' ``disk_ranges``."""
    ranges = []
    for offset, length in spans:
        ranges.extend(extent_map.disk_ranges(offset, length))
    return split_ranges(ranges)


def seeded_map(rng):
    """Extents over ``FILE_BLOCKS`` blocks with holes between some of
    them; a third continue the previous extent on disk across a hole,
    some are longer than ``MAX_REQUEST_SIZE``."""
    extent_map = ExtentMap()
    pos = rng.randrange(3)
    disk_end = 0
    while pos < FILE_BLOCKS:
        length = rng.choice((1, 2, 3, 8, rng.randrange(1, 3 * CAP)))
        length = min(length, FILE_BLOCKS - pos)
        roll = rng.random()
        if roll < 0.35 and disk_end:
            disk = disk_end  # disk-adjacent to the previous extent
        else:
            disk = rng.randrange(1 << 16)
        extent_map.insert(Extent(pos * B, disk * B, length * B))
        disk_end = disk + length
        pos += length
        if rng.random() < 0.4:
            pos += rng.randrange(1, 6)  # a hole
    extent_map.check_invariants()
    return extent_map


def ascending_spans(rng):
    """Disjoint ascending spans, like the missing page runs of a probe."""
    spans = []
    pos = rng.randrange(FILE_BLOCKS // 2)
    for _ in range(rng.randrange(1, 6)):
        length = rng.choice((1, 2, 5, rng.randrange(1, 3 * CAP)))
        spans.append((pos * B, length * B))
        pos += length + rng.randrange(1, 8)
    return spans


def any_spans(rng):
    """Spans in any order, overlapping or past the end of the file."""
    return [
        (rng.randrange(FILE_BLOCKS + 16) * B, rng.randrange(0, 2 * CAP) * B)
        for _ in range(rng.randrange(1, 4))
    ]


def spans_around_a_hole(rng, extent_map):
    """Two spans that end and start at a hole's edges, or inside it."""
    holes = extent_map.holes(0, FILE_BLOCKS * B)
    hole, hole_len = rng.choice(holes)
    before = rng.randrange(1, 2 * CAP) * B
    after = rng.randrange(1, 2 * CAP) * B
    lo = hole + rng.choice((0, 0, B)) if hole_len > B else hole
    hi = hole + hole_len
    return [(max(0, lo - before), min(before, lo)), (hi, after)]


def calls(seed):
    """A seeded map and the spans of 300 calls on it."""
    rng = random.Random(seed)
    extent_map = seeded_map(rng)
    for _ in range(300):
        roll = rng.random()
        if roll < 0.4:
            spans = ascending_spans(rng)
        elif roll < 0.7:
            spans = spans_around_a_hole(rng, extent_map)
        else:
            spans = any_spans(rng)
        yield extent_map, spans


@pytest.mark.parametrize("seed", range(12))
def test_commands_match_the_three_pass_composition(seed):
    for extent_map, spans in calls(seed):
        assert extent_map.commands(spans) == three_pass(extent_map, spans), spans


def test_the_streams_reach_cross_span_merges_and_clipped_caps():
    """Across the seeded streams, some calls merge the last piece of one
    span with the first of the next, and some cap a run that starts
    inside an extent, so dropping either behaviour fails the test above."""
    cross_span = clipped_caps = 0
    for seed in range(12):
        for extent_map, spans in calls(seed):
            want = three_pass(extent_map, spans)
            per_span = [c for span in spans for c in three_pass(extent_map, [span])]
            cross_span += per_span != want
            offset, length = spans[0]
            starts_inside = any(
                e.file_offset < offset < e.file_end for e in extent_map
            )
            clipped_caps += starts_inside and len(want) > 1 and want[0][1] == MAX_REQUEST_SIZE
    assert cross_span > 20, cross_span
    assert clipped_caps > 20, clipped_caps


def test_scripted_merges_across_holes_and_spans():
    """Two extents, disk-adjacent across a two-block hole: one span over
    both, or one span each, make one command; a cap counts from the
    clipped start."""
    extent_map = ExtentMap()
    extent_map.insert(Extent(0, 1000 * B, (CAP + 4) * B))
    extent_map.insert(Extent((CAP + 6) * B, (1000 + CAP + 4) * B, 4 * B))
    extent_map.insert(Extent((CAP + 10) * B, 9000 * B, B))
    whole = [(0, (CAP + 10) * B)]
    split = [(0, (CAP + 4) * B), ((CAP + 6) * B, 4 * B)]
    for spans in (whole, split):
        assert extent_map.commands(spans) == [
            (1000 * B, MAX_REQUEST_SIZE), ((1000 + CAP) * B, 8 * B),
        ]
        assert extent_map.commands(spans) == three_pass(extent_map, spans)
    clipped = [(3 * B, (CAP + 1) * B), ((CAP + 6) * B, 5 * B)]
    assert extent_map.commands(clipped) == [
        (1003 * B, MAX_REQUEST_SIZE), ((1003 + CAP) * B, 5 * B), (9000 * B, B),
    ]
    assert extent_map.commands(clipped) == three_pass(extent_map, clipped)
    holes_only = [((CAP + 4) * B, 2 * B), ((CAP + 20) * B, B)]
    assert extent_map.commands(holes_only) == []
    assert extent_map.commands([]) == []
