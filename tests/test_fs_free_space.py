"""Free-space manager: allocation policies and invariants."""

import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import BLOCK_SIZE as B
from repro.errors import InvalidArgument, NoSpaceError
from repro.fs import FreeSpaceManager


def manager(blocks=100):
    return FreeSpaceManager(0, blocks * B)


def test_alloc_contiguous_first_fit():
    m = manager()
    assert m.alloc_contiguous(10 * B) == 0
    assert m.alloc_contiguous(10 * B) == 10 * B


def test_alloc_with_goal():
    m = manager()
    m.alloc_at(0, 10 * B)
    m.alloc_at(20 * B, 10 * B)
    # goal inside the second gap: allocate after it, wrapping if needed
    start = m.alloc_contiguous(5 * B, goal=30 * B)
    assert start == 30 * B


def test_goal_wraps_around():
    m = manager(10)
    m.alloc_at(5 * B, 5 * B)
    start = m.alloc_contiguous(3 * B, goal=8 * B)
    assert start == 0  # nothing after the goal; wraps to the front


def test_alloc_stitches_in_address_order():
    m = manager(100)
    # free space: [0,10) [20,30) [40,100) — no single run holds 65 blocks
    m.alloc_at(10 * B, 10 * B)
    m.alloc_at(30 * B, 10 * B)
    runs = m.alloc(65 * B)
    assert runs == [(0, 10 * B), (20 * B, 10 * B), (40 * B, 45 * B)]


def test_alloc_no_space():
    m = manager(10)
    with pytest.raises(NoSpaceError):
        m.alloc(11 * B)
    with pytest.raises(NoSpaceError):
        m.alloc_contiguous(11 * B)


def test_free_coalesces():
    m = manager(100)
    m.alloc_at(0, 30 * B)
    m.free(0, 10 * B)
    m.free(20 * B, 10 * B)  # coalesces with the [30, 100) tail
    assert m.stats().run_count == 2
    m.free(10 * B, 10 * B)  # bridges everything
    assert m.stats().run_count == 1
    assert m.free_bytes == 100 * B


def test_double_free_detected():
    m = manager(10)
    m.alloc_at(0, 5 * B)
    m.free(0, 5 * B)
    with pytest.raises(InvalidArgument):
        m.free(0, 5 * B)


def test_alloc_at_occupied():
    m = manager(10)
    m.alloc_at(0, 5 * B)
    with pytest.raises(NoSpaceError):
        m.alloc_at(4 * B, 2 * B)


def test_unaligned_rejected():
    m = manager(10)
    with pytest.raises(InvalidArgument):
        m.alloc(B + 1)
    with pytest.raises(InvalidArgument):
        FreeSpaceManager(1, 2 * B)


def test_stats():
    m = manager(100)
    m.alloc_at(10 * B, 10 * B)
    stats = m.stats()
    assert stats.free_bytes == 90 * B
    assert stats.run_count == 2
    assert stats.largest_run == 80 * B


actions = st.lists(
    st.tuples(st.sampled_from(["alloc", "alloc_contig"]), st.integers(1, 20)),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(actions)
def test_alloc_free_roundtrip_conserves_space(seq):
    m = manager(200)
    total = 200 * B
    held = []
    for kind, blocks in seq:
        length = blocks * B
        try:
            if kind == "alloc_contig":
                start = m.alloc_contiguous(length)
                held.append((start, length))
            else:
                held.extend(m.alloc(length))
        except NoSpaceError:
            continue
        m.check_invariants()
    assert m.free_bytes == total - sum(l for _, l in held)
    for start, length in held:
        m.free(start, length)
        m.check_invariants()
    assert m.free_bytes == total
    assert m.stats().run_count == 1


# ----------------------------------------------------------------------
# cloning: the experiment fixtures deep-copy volumes full of holes
# ----------------------------------------------------------------------


def _churn(m, rng, held, steps):
    """``steps`` seeded allocations and frees; ``held`` is the live runs."""
    blocks = m.region_end // B
    for _ in range(steps):
        if held and rng.random() < 0.45:
            m.free(*held.pop(rng.randrange(len(held))))
            continue
        length = rng.randint(1, 24) * B
        goal = rng.randrange(blocks) * B if rng.random() < 0.5 else None
        try:
            if rng.random() < 0.5:
                held.append((m.alloc_contiguous(length, goal=goal), length))
            else:
                held.extend(m.alloc(length, goal=goal))
        except NoSpaceError:
            pass


def _view(m):
    """Everything observable of a manager, as values (no shared lists)."""
    return (m.runs(), m.stats(), m.free_bytes,
            {key: list(bucket) for key, bucket in m._buckets.items()})


@pytest.mark.parametrize("seed", range(8))
def test_clone_is_an_exact_independent_copy(seed):
    m = manager(512)
    held = []
    _churn(m, random.Random(seed), held, 300)
    before = _view(m)  # also fills the caches the clone shares
    clone = copy.deepcopy(m)
    assert _view(clone) == before
    clone.check_invariants()

    # the clone's operations never reach the original's lists
    clone_held = list(held)
    _churn(clone, random.Random(seed + 1000), clone_held, 200)
    clone.check_invariants()
    assert _view(m) == before
    m.check_invariants()

    # and the same operations on the original keep the two equal
    _churn(m, random.Random(seed + 1000), held, 200)
    assert held == clone_held
    assert _view(m) == _view(clone)
