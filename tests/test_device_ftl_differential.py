"""Differential test: the chunked-array FTL against the tuple-dict one.

``ReferenceFtl`` is the FTL the chunked 32-bit l2p replaced, kept
verbatim: an lpn -> ``(block, slot)`` dict, slots cleared to ``None``
on overwrite and discard, and one program step per page.  Seeded
write/invalidate streams run through both on small FTLs that reach GC
and run out of space, and every step must return the same write result
or raise the same ``DeviceError``.  Streams go on after an error: the
failure paths must leave the same state too.

After every step the whole normalised state must match: every block by
where it lives (active, sealed, free) with its channel, its slots with
the dead ones unlisted (a slot of the array FTL is live while its lpn
maps to it), its valid and erase counts; then the mapping sorted by lpn,
created blocks, the cursor, the totals and the channel array.  Each is
compared as one array or byte string, not lpn by lpn.  The read channel
of every lpn (``lanes`` over the whole range), a random ``lanes`` window
and ``channel_of`` at the window's ends must agree with the reference's
mapping, ``channel_of`` at every lpn once a stream ends, and the channel
array must never grow past the highest lpn written.  Most streams fit
in one l2p chunk; a second set spans three, so runs and GC cross chunk
boundaries.  A ``copy.deepcopy`` taken mid-stream (the bench harness
clones aged devices this way) must go on identically.
"""

import copy
import random
from array import array
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np
import pytest

from repro.device.ftl import L2P_CHUNK, PageMappingFtl
from repro.errors import DeviceError


class FtlWriteResult(NamedTuple):
    """The reference's write result: the per-channel dict, built eagerly."""

    pages_per_channel: Dict[int, int]
    relocated_pages: int
    erased_blocks: int


@dataclass
class ReferenceBlock:
    """One flash erase block: an append-only list of page slots."""

    channel: int
    pages: List[Optional[int]] = field(default_factory=list)
    valid_count: int = 0
    erase_count: int = 0


class ReferenceFtl:
    """The per-page FTL the run queue replaced, kept verbatim."""

    def __init__(
        self,
        logical_pages: int,
        channels: int = 8,
        pages_per_block: int = 256,
        overprovision: float = 0.07,
        gc_free_block_threshold: int = 2,
    ) -> None:
        if channels <= 0 or pages_per_block <= 0:
            raise DeviceError("channels and pages_per_block must be positive")
        if channels > 256:
            raise DeviceError("at most 256 channels (one byte per page in the channel array)")
        self.logical_pages = logical_pages
        self.channels = channels
        self.pages_per_block = pages_per_block
        physical_pages = int(logical_pages * (1.0 + overprovision))
        per_channel_blocks = max(
            gc_free_block_threshold + 2,
            -(-physical_pages // (pages_per_block * channels)),
        )
        self.blocks_per_channel = per_channel_blocks
        self.gc_free_block_threshold = gc_free_block_threshold
        #: lpn -> (ReferenceBlock, slot index)
        self.mapping: Dict[int, Tuple[ReferenceBlock, int]] = {}
        self._active: List[Optional[ReferenceBlock]] = [None] * channels
        self._sealed: List[List[ReferenceBlock]] = [[] for _ in range(channels)]
        self._free_pool: List[List[ReferenceBlock]] = [[] for _ in range(channels)]
        self._created_blocks = [0] * channels
        self._next_channel = 0
        self.total_erases = 0
        self.host_pages_written = 0
        self.relocated_pages_total = 0
        #: ``_chan[lpn]`` is the channel a read of ``lpn`` lands on: the
        #: mapped block's channel, or ``lpn % channels`` while unmapped.
        #: Grown lazily, in whole ``_stripe`` rounds, only as far as the
        #: highest lpn written; lpns past its end are unmapped.
        self._chan = bytearray()
        self._stripe = bytes(range(channels))

    # -- mapping queries -------------------------------------------------

    def channel_of(self, lpn: int) -> int:
        """Channel a read of ``lpn`` lands on.

        Unwritten logical pages behave as if the drive were pre-filled
        sequentially (address-striped).
        """
        chan = self._chan
        return chan[lpn] if lpn < len(chan) else lpn % self.channels

    def lanes(self, first: int, last: int) -> bytes:
        """Channels of lpns ``first..last`` inclusive, in lpn order.

        A read's plan is a pure function of this sequence and its byte
        length, so it can key a cache that no mapping change invalidates.
        """
        chan = self._chan
        if last < len(chan):
            return bytes(chan[first:last + 1])
        channels = self.channels
        tail = range(max(first, len(chan)), last + 1)
        return bytes(chan[first:]) + bytes(lpn % channels for lpn in tail)

    def _grow(self, lpn: int) -> int:
        """Extend ``_chan`` over ``lpn`` with the striped pattern; new length."""
        chan = self._chan
        chan += self._stripe * -(-(lpn + 1 - len(chan)) // self.channels)
        return len(chan)

    @property
    def write_amplification(self) -> float:
        if self.host_pages_written == 0:
            return 1.0
        return (self.host_pages_written + self.relocated_pages_total) / self.host_pages_written

    # -- block lifecycle -------------------------------------------------

    def _take_free_block(self, channel: int) -> Optional[ReferenceBlock]:
        if self._free_pool[channel]:
            return self._free_pool[channel].pop()
        if self._created_blocks[channel] < self.blocks_per_channel:
            self._created_blocks[channel] += 1
            return ReferenceBlock(channel)
        return None

    def _free_blocks_available(self, channel: int) -> int:
        return len(self._free_pool[channel]) + (
            self.blocks_per_channel - self._created_blocks[channel]
        )

    # -- program path ----------------------------------------------------

    def _open_block(self, channel: int, failure: str = "out of space (GC failed)") -> ReferenceBlock:
        """Seal ``channel``'s full active block and activate a fresh one.

        The fresh block is taken *before* the old one is sealed, so a
        channel out of space leaves the active block where it was.
        """
        block = self._take_free_block(channel)
        if block is None:
            raise DeviceError(f"flash channel {channel} {failure}")
        full = self._active[channel]
        if full is not None:
            self._sealed[channel].append(full)
        self._active[channel] = block
        return block

    def write(self, lpns: Iterable[int]) -> FtlWriteResult:
        """Host write of the given logical pages (out-of-place, striped).

        One loop over the pages with the per-page program, block-full
        check and GC trigger inlined.  GC runs only when the channel's
        free blocks (pooled + never created) drop below the threshold —
        the condition ``_maybe_gc`` itself loops on.  The destination
        slot is taken before the page's old slot is cleared, so a channel
        out of space leaves the old mapping intact.  Before any call that
        can raise, ``_next_channel`` and ``host_pages_written`` are
        stored, so a failure mid-list leaves the pages already written
        accounted for.
        """
        logical_pages = self.logical_pages
        channels = self.channels
        pages_per_block = self.pages_per_block
        threshold = self.gc_free_block_threshold
        blocks_per_channel = self.blocks_per_channel
        mapping = self.mapping
        mapping_get = mapping.get
        chan = self._chan
        chan_len = len(chan)
        active = self._active
        free_pool = self._free_pool
        created = self._created_blocks
        host_base = self.host_pages_written
        start = channel = self._next_channel
        written = 0
        relocated = 0
        erased = 0
        for lpn in lpns:
            if lpn >= logical_pages:
                self._next_channel = channel
                self.host_pages_written = host_base + written
                raise DeviceError(f"lpn {lpn} beyond logical capacity")
            following = channel + 1
            if following == channels:
                following = 0
            if len(free_pool[channel]) + blocks_per_channel - created[channel] < threshold:
                self._next_channel = following
                self.host_pages_written = host_base + written
                r, e = self._maybe_gc(channel)
                relocated += r
                erased += e
            block = active[channel]
            if block is None or len(block.pages) >= pages_per_block:
                self._next_channel = following
                self.host_pages_written = host_base + written
                block = self._open_block(channel)
            old = mapping_get(lpn)
            if old is not None:
                old_block, slot = old
                old_block.pages[slot] = None
                old_block.valid_count -= 1
            pages = block.pages
            mapping[lpn] = (block, len(pages))
            if lpn >= chan_len:
                chan_len = self._grow(lpn)
            chan[lpn] = channel
            pages.append(lpn)
            block.valid_count += 1
            written += 1
            channel = following
        self._next_channel = channel
        self.host_pages_written = host_base + written
        # round-robin striping: the first ``written % channels`` channels
        # from ``start`` get one page more, in first-occurrence order
        per_channel: Dict[int, int] = {}
        rounds, extra = divmod(written, channels)
        channel = start
        for i in range(min(written, channels)):
            per_channel[channel] = rounds + 1 if i < extra else rounds
            channel += 1
            if channel == channels:
                channel = 0
        return FtlWriteResult(per_channel, relocated, erased)

    def invalidate(self, lpns: Iterable[int]) -> int:
        """Discard: drop mappings, freeing the pages for GC.  Returns count."""
        dropped = 0
        mapping_pop = self.mapping.pop
        chan = self._chan
        channels = self.channels
        for lpn in lpns:
            entry = mapping_pop(lpn, None)
            if entry is not None:
                chan[lpn] = lpn % channels
                block, slot = entry
                block.pages[slot] = None
                block.valid_count -= 1
                dropped += 1
        return dropped

    # -- garbage collection ----------------------------------------------

    def _maybe_gc(self, channel: int) -> Tuple[int, int]:
        relocated = 0
        erased = 0
        while self._free_blocks_available(channel) < self.gc_free_block_threshold:
            victim = self._pick_victim(channel)
            if victim is None:
                break
            relocated += self._collect(victim)
            erased += 1
        return relocated, erased

    def _pick_victim(self, channel: int) -> Optional[ReferenceBlock]:
        sealed = self._sealed[channel]
        if not sealed:
            return None
        best_idx = min(range(len(sealed)), key=lambda i: sealed[i].valid_count)
        if sealed[best_idx].valid_count >= self.pages_per_block:
            return None  # nothing reclaimable
        return sealed.pop(best_idx)

    def _collect(self, victim: ReferenceBlock) -> int:
        """Relocate valid pages out of ``victim`` and erase it.

        Each page's destination is taken before its victim slot is
        cleared.  If the channel wedges mid-relocation the victim, still
        holding its unmoved pages, goes back to the sealed list.
        """
        moved = 0
        channel = victim.channel
        pages = victim.pages
        try:
            for slot, lpn in enumerate(pages):
                if lpn is None:
                    continue
                # Relocations stay on the victim's channel (intra-channel
                # copyback), so ``_chan`` needs no update.
                self._program_relocation(channel, lpn)
                pages[slot] = None
                victim.valid_count -= 1
                moved += 1
        except DeviceError:
            self.relocated_pages_total += moved
            self._sealed[channel].append(victim)
            raise
        victim.pages = []
        victim.erase_count += 1
        self.total_erases += 1
        self.relocated_pages_total += moved
        self._free_pool[channel].append(victim)
        return moved

    def _program_relocation(self, channel: int, lpn: int) -> None:
        block = self._active[channel]
        if block is None or len(block.pages) >= self.pages_per_block:
            block = self._open_block(channel, "wedged during GC")
        block.pages.append(lpn)
        block.valid_count += 1
        self.mapping[lpn] = (block, len(block.pages) - 1)


class State(NamedTuple):
    """The normalised state of an FTL (see :func:`snapshot`)."""

    homes: tuple
    blocks: tuple
    lengths: tuple
    where: bytes
    listed: bytes
    created: tuple
    cursor: int
    totals: tuple
    chan: bytes


_BLOCK_FIELDS = attrgetter("channel", "valid_count", "erase_count")
_PAGES = attrgetter("pages")
_BASE = attrgetter("base")


def snapshot(ftl) -> State:
    """The normalised state of either FTL, as whole arrays.

    Blocks are numbered by where they live: per channel the active block,
    then the sealed ones, then the free pool (``homes`` holds the counts).
    Per block: channel, valid and erase counts, and slots written.
    ``where[lpn]`` is the mapped slot as ``number * pages_per_block +
    slot`` (-1 unmapped) and ``listed[slot]`` the lpn programmed in a slot
    the mapping points at (-1 otherwise): the mapping sorted by lpn, and
    every block's slots with the dead ones unlisted.
    """
    homes, order = [], []
    for channel in range(ftl.channels):
        active, sealed, free = ftl._active[channel], ftl._sealed[channel], ftl._free_pool[channel]
        homes.append((active is not None, len(sealed), len(free)))
        if active is not None:
            order.append(active)
        order += sealed
        order += free
    mapped = _reference_mapping if isinstance(ftl, ReferenceFtl) else _array_mapping
    where, listed = mapped(ftl, order)
    return State(
        tuple(homes), tuple(map(_BLOCK_FIELDS, order)), tuple(map(len, map(_PAGES, order))),
        where.tobytes(), listed.tobytes(), tuple(ftl._created_blocks), ftl._next_channel,
        (ftl.total_erases, ftl.host_pages_written, ftl.relocated_pages_total),
        bytes(ftl._chan),
    )


def _reference_mapping(ftl, order):
    """``(where, listed)`` from the reference's ``{lpn: (block, slot)}``."""
    per_block = ftl.pages_per_block
    where = np.full(ftl.logical_pages, -1, dtype=np.int64)
    listed = np.full(len(order) * per_block, -1, dtype=np.int64)
    count = len(ftl.mapping)
    if count:
        blocks, slots = zip(*ftl.mapping.values())
        # each entry's block number: its id's rank among the homes' ids
        ids = np.fromiter(map(id, order), dtype=np.int64, count=len(order))
        rank = np.argsort(ids)
        at = rank[np.searchsorted(ids, np.fromiter(map(id, blocks), dtype=np.int64, count=count),
                                  sorter=rank)] * per_block
        at += np.fromiter(slots, dtype=np.int64, count=count)
        lpns = np.fromiter(ftl.mapping, dtype=np.int64, count=count)
        where[lpns] = at
        # the reference clears a slot whenever its lpn moves or is
        # discarded, so a mapped slot holds its own lpn
        listed[at] = lpns
    return where, listed


def _array_mapping(ftl, order):
    """``(where, listed)`` from the chunked l2p and the blocks' slots.

    A physical page is ``block.base + slot``; a slot is live while the
    l2p maps the lpn programmed there back to it.
    """
    per_block = ftl.pages_per_block
    unmapped = array("i", [-1]) * L2P_CHUNK
    ppns = np.frombuffer(b"".join(
        ftl._l2p.get(key, unmapped) for key in range(-(-ftl.logical_pages // L2P_CHUNK))
    ), dtype=np.int32)[:ftl.logical_pages].astype(np.int64)
    # physical block -> the first slot of its number
    bases = np.fromiter(map(_BASE, order), dtype=np.int64, count=len(order))
    first = np.zeros(len(order) + 1, dtype=np.int64)
    first[bases // per_block] = np.arange(len(order)) * per_block - bases
    where = np.where(ppns >= 0, first[ppns // per_block] + ppns, -1)
    pad = array("i", [-1]) * per_block
    programmed = np.frombuffer(b"".join(
        block.pages.tobytes() + pad[len(block.pages):].tobytes() for block in order
    ), dtype=np.int32).astype(np.int64)
    live = (programmed >= 0) & (where[programmed] == np.arange(len(programmed)))
    return where, np.where(live, programmed, -1)


def mapped_channels(state: State, channels: int, pages_per_block: int, count: int) -> bytes:
    """Channel of lpns ``0..count-1`` derived from the mapping alone."""
    where = np.frombuffer(state.where, dtype=np.int64)
    read = np.arange(count) % channels
    live = np.flatnonzero(where >= 0)
    if live.size:
        block_channels = np.array([fields[0] for fields in state.blocks])
        read[live] = block_channels[where[live] // pages_per_block]
    return read.astype(np.uint8).tobytes()


def written_lpns(lpns, logical: int):
    """The lpns a write stores: those before the first out-of-range one."""
    for lpn in lpns:
        if lpn >= logical:
            return
        yield lpn


def stream(rng: random.Random, logical: int, channels: int, pages_per_block: int):
    """One step: ``(op, lpns)`` with runs, scattered lists and ranges."""
    roll = rng.random()
    start = rng.randrange(logical)
    length = rng.randint(1, 2 * channels + 3)
    if roll < 0.35:
        return "write", range(start, min(logical, start + length))
    if roll < 0.5:
        # long enough to fill blocks on every channel and cross events
        length = rng.randint(channels, 3 * channels * pages_per_block)
        return "write", range(start, min(logical + rng.randrange(3), start + length))
    if roll < 0.75:
        lpns = [rng.randrange(logical) for _ in range(length)]
        if rng.random() < 0.05:
            # out-of-range lpn mid-list: the pages before it stay written
            lpns.insert(rng.randrange(len(lpns) + 1), logical + rng.randrange(4))
        return "write", lpns
    if roll < 0.9:
        return "invalidate", range(start, min(logical, start + length))
    return "invalidate", [rng.randrange(logical) for _ in range(length)]


def outcome(ftl, op, lpns):
    try:
        return getattr(ftl, op)(lpns)
    except DeviceError as exc:
        return exc


def same(got, want, where):
    if isinstance(want, DeviceError) or isinstance(got, DeviceError):
        assert type(got) is type(want) and str(got) == str(want), (where, got, want)
    elif isinstance(want, FtlWriteResult):
        assert (list(got.pages_per_channel.items()), got.relocated_pages,
                got.erased_blocks) == (list(want.pages_per_channel.items()),
                                       want.relocated_pages, want.erased_blocks), where
    else:
        assert got == want, (where, got, want)


CONFIGS = [
    (channels, pages_per_block, overprovision)
    for channels in (1, 2, 4, 8)
    for pages_per_block in (4, 8, 16)
    for overprovision in (0.07, 0.25, 0.5)
]
SEEDS_PER_CONFIG = 8
STEPS = 400


def run_pair(seed: int, channels: int, pages_per_block: int, overprovision: float,
             logical: Optional[int] = None):
    """Drive both FTLs (and a mid-stream deep copy) through one stream.

    ``logical`` defaults to four pages per block on every channel.
    Returns ``(erases, errors)``.
    """
    if logical is None:
        logical = channels * pages_per_block * 4
    kwargs = dict(logical_pages=logical, channels=channels,
                  pages_per_block=pages_per_block, overprovision=overprovision)
    new, ref = PageMappingFtl(**kwargs), ReferenceFtl(**kwargs)
    clone = None
    rng = random.Random(seed)
    windows = random.Random(~seed)
    probe = logical + channels + 1  # past the end: the striped fallback
    high = -1
    errors = 0
    for step in range(STEPS):
        op, lpns = stream(rng, logical, channels, pages_per_block)
        if op == "write":
            high = max(high, max(written_lpns(lpns, logical), default=-1))
        want = outcome(ref, op, lpns)
        same(outcome(new, op, lpns), want, (seed, step, op))
        errors += isinstance(want, DeviceError)
        want_state = snapshot(ref)
        assert snapshot(new) == want_state, (seed, step, op)
        # the read channel of every lpn, the striped ones past the end too
        want_channels = mapped_channels(want_state, channels, pages_per_block, probe)
        assert new.lanes(0, probe - 1) == want_channels, (seed, step)
        first = windows.randrange(probe)
        last = windows.randrange(first, probe)
        assert new.lanes(first, last) == want_channels[first:last + 1], (seed, step)
        assert (new.channel_of(first), new.channel_of(last)) == (
            want_channels[first], want_channels[last]), (seed, step)
        # memory guard: grown exact-fit, whole stripes, never densely
        assert len(new._chan) <= -(-(high + 1) // channels) * channels, (seed, step)
        if clone is not None:
            same(outcome(clone, op, lpns), want, (seed, step, "clone"))
            if step % 16 == 0 or step == STEPS - 1:
                assert snapshot(clone) == want_state, (seed, step, "clone")
        elif step == STEPS // 3:
            # a deep copy must go on identically to the original
            clone = copy.deepcopy(new)
    assert bytes(map(new.channel_of, range(probe))) == want_channels, seed
    return ref.total_erases, errors


@pytest.mark.parametrize("channels,pages_per_block,overprovision", CONFIGS)
def test_write_loop_matches_per_page_reference(channels, pages_per_block, overprovision):
    erases = errors = 0
    for seed in range(SEEDS_PER_CONFIG):
        e, err = run_pair(seed * 7919 + channels, channels, pages_per_block, overprovision)
        erases += e
        errors += err
    # every configuration reaches GC and a failure path, so relocation,
    # erase and the state an error leaves behind are all compared
    assert erases > 0 and errors > 0


@pytest.mark.parametrize("seed", range(3))
def test_runs_across_l2p_chunks_match_reference(seed):
    """Two whole l2p chunks and part of a third: long runs cross chunk
    boundaries, and GC relocates pages between chunks."""
    erases, _ = run_pair(seed, 8, 16, 0.07, logical=2 * L2P_CHUNK + 40)
    assert erases > 0


def test_flash_write_plan_channel_order_from_ftl():
    """``FlashSsd`` builds ``unit_work`` in ``pages_per_channel`` order;
    a write starting mid-rotation must list channels from the cursor."""
    from repro.block.request import IoOp
    from repro.constants import BLOCK_SIZE, MIB
    from repro.device.flash import PAGE_PROGRAM, FlashSsd

    ssd = FlashSsd(capacity=64 * MIB)
    ssd.submit(IoOp.WRITE, [(0, 3 * BLOCK_SIZE)])
    plan = ssd._plan_command(IoOp.WRITE, 0, 10 * BLOCK_SIZE)
    assert [unit for unit, _ in plan.unit_work] == [3, 4, 5, 6, 7, 0, 1, 2]
    work = dict(plan.unit_work)
    assert work[3] == work[4] == 2 * PAGE_PROGRAM
    assert work[5] == PAGE_PROGRAM
