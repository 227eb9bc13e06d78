"""Differential test: the run-granular FTL write loop against the per-page one.

``ReferenceFtl`` keeps the per-page write path the single inlined loop in
``PageMappingFtl.write`` replaced (``_program`` per page, ``_maybe_gc``
before every page, per-page ``pages_per_channel`` accumulation).  Seeded
write/invalidate streams run through both on small FTLs that reach GC,
and after every step the write results and the whole FTL state must be
identical: mapping, block contents, valid and erase counts, sealed and
free-pool order, created blocks, the striping cursor and the totals.
The per-lpn channel array must agree with the reference's mapping at
every lpn, and must never grow past the highest lpn written.

A stream stops at its first GC or out-of-space ``DeviceError``: the
failure paths were reordered on purpose (see the failure-path tests in
``test_device_ftl.py``).  Out-of-range lpns are part of the streams and
must leave identical partial state.
"""

import random
from typing import Dict, List, Optional, Tuple

import pytest

from repro.device.ftl import EraseBlock, FtlWriteResult, PageMappingFtl
from repro.errors import DeviceError


class ReferenceFtl(PageMappingFtl):
    """The per-page write path, as it was before the loop was inlined."""

    def _activate(self, channel: int) -> EraseBlock:
        block = self._take_free_block(channel)
        if block is None:
            raise DeviceError(f"flash channel {channel} out of space (GC failed)")
        self._active[channel] = block
        return block

    def _program(self, channel: int, lpn: int) -> None:
        old = self.mapping.get(lpn)
        if old is not None:
            old_block, slot = old
            old_block.pages[slot] = None
            old_block.valid_count -= 1
        block = self._active[channel]
        if block is None or len(block.pages) >= self.pages_per_block:
            if block is not None:
                self._sealed[channel].append(block)
            block = self._activate(channel)
        block.pages.append(lpn)
        block.valid_count += 1
        self.mapping[lpn] = (block, len(block.pages) - 1)

    def write(self, lpns) -> FtlWriteResult:
        per_channel: Dict[int, int] = {}
        relocated = 0
        erased = 0
        for lpn in lpns:
            if lpn >= self.logical_pages:
                raise DeviceError(f"lpn {lpn} beyond logical capacity")
            channel = self._next_channel
            self._next_channel = (self._next_channel + 1) % self.channels
            r, e = self._maybe_gc(channel)
            relocated += r
            erased += e
            self._program(channel, lpn)
            per_channel[channel] = per_channel.get(channel, 0) + 1
            self.host_pages_written += 1
        return FtlWriteResult(per_channel, relocated, erased)

    def invalidate(self, lpns) -> int:
        dropped = 0
        for lpn in lpns:
            entry = self.mapping.pop(lpn, None)
            if entry is not None:
                block, slot = entry
                block.pages[slot] = None
                block.valid_count -= 1
                dropped += 1
        return dropped

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

    def _collect(self, victim: EraseBlock) -> int:
        moved = 0
        for slot, lpn in enumerate(victim.pages):
            if lpn is None:
                continue
            victim.pages[slot] = None
            victim.valid_count -= 1
            self._program_relocation(victim.channel, lpn)
            moved += 1
        victim.pages = []
        victim.erase_count += 1
        self.total_erases += 1
        self.relocated_pages_total += moved
        self._free_pool[victim.channel].append(victim)
        return moved

    def _program_relocation(self, channel: int, lpn: int) -> None:
        block = self._active[channel]
        if block is None or len(block.pages) >= self.pages_per_block:
            if block is not None:
                self._sealed[channel].append(block)
            block = self._take_free_block(channel)
            if block is None:
                raise DeviceError(f"flash channel {channel} wedged during GC")
            self._active[channel] = block
        block.pages.append(lpn)
        block.valid_count += 1
        self.mapping[lpn] = (block, len(block.pages) - 1)


def snapshot(ftl: PageMappingFtl):
    """The whole FTL state, with blocks named by where they live."""
    names: Dict[int, Tuple] = {}  # id(block) -> where it lives
    blocks = []
    for channel in range(ftl.channels):
        homes: List[Tuple[Tuple, Optional[EraseBlock]]] = [
            (("active", channel), ftl._active[channel])
        ]
        homes += [(("sealed", channel, i), b) for i, b in enumerate(ftl._sealed[channel])]
        homes += [(("free", channel, i), b) for i, b in enumerate(ftl._free_pool[channel])]
        for name, block in homes:
            if block is None:
                blocks.append((name, None))
                continue
            names[id(block)] = name
            blocks.append((name, block.channel, tuple(block.pages),
                           block.valid_count, block.erase_count))
    name_of = names.__getitem__
    mapping = [(lpn, name_of(id(entry[0])), entry[1]) for lpn, entry in ftl.mapping.items()]
    return (
        blocks, mapping, list(ftl._created_blocks), ftl._next_channel,
        ftl.total_erases, ftl.host_pages_written,
        ftl.relocated_pages_total,
    )


def mapped_channels(ftl: PageMappingFtl, count: int) -> List[int]:
    """Channel of lpns ``0..count-1`` derived from the mapping alone."""
    get = ftl.mapping.get
    channels = ftl.channels
    return [entry[0].channel if (entry := get(lpn)) is not None else lpn % channels
            for lpn in range(count)]


def written_lpns(lpns, logical: int):
    """The lpns a write stores: those before the first out-of-range one."""
    for lpn in lpns:
        if lpn >= logical:
            return
        yield lpn


def stream(rng: random.Random, logical: int, channels: int):
    """One step: ``(op, lpns)`` with runs, scattered lists and ranges."""
    roll = rng.random()
    start = rng.randrange(logical)
    length = rng.randint(1, 2 * channels + 3)
    if roll < 0.45:
        return "write", range(start, min(logical, start + length))
    if roll < 0.75:
        lpns = [rng.randrange(logical) for _ in range(length)]
        if rng.random() < 0.05:
            # out-of-range lpn mid-list: the pages before it stay written
            lpns.insert(rng.randrange(len(lpns) + 1), logical + rng.randrange(4))
        return "write", lpns
    if roll < 0.9:
        return "invalidate", range(start, min(logical, start + length))
    return "invalidate", [rng.randrange(logical) for _ in range(length)]


CONFIGS = [
    (channels, pages_per_block, overprovision)
    for channels in (1, 2, 4, 8)
    for pages_per_block in (4, 8, 16)
    for overprovision in (0.07, 0.25, 0.5)
]
SEEDS_PER_CONFIG = 8
STEPS = 400


def run_pair(seed: int, channels: int, pages_per_block: int, overprovision: float):
    """Drive both FTLs through one stream; returns (steps, erases)."""
    logical = channels * pages_per_block * 4
    kwargs = dict(logical_pages=logical, channels=channels,
                  pages_per_block=pages_per_block, overprovision=overprovision)
    new, ref = PageMappingFtl(**kwargs), ReferenceFtl(**kwargs)
    rng = random.Random(seed)
    windows = random.Random(~seed)
    probe = logical + channels + 1  # past the end: the striped fallback
    high = -1
    for step in range(STEPS):
        op, lpns = stream(rng, logical, channels)
        if op == "write":
            high = max(high, max(written_lpns(lpns, logical), default=-1))
        outcomes = []
        for ftl in (new, ref):
            try:
                outcomes.append(getattr(ftl, op)(lpns))
            except DeviceError as exc:
                outcomes.append(exc)
        got, want = outcomes
        if isinstance(want, DeviceError) or isinstance(got, DeviceError):
            assert type(got) is type(want) and str(got) == str(want), (step, got, want)
            if "beyond logical capacity" not in str(want):
                return step, ref.total_erases  # GC / out-of-space path: reordered
        elif op == "write":
            assert got == want, (step, got, want)
            assert list(got.pages_per_channel) == list(want.pages_per_channel), step
        else:
            assert got == want, step
        assert snapshot(new) == snapshot(ref), (seed, step, op)
        want_channels = mapped_channels(ref, probe)
        assert [new.channel_of(lpn) for lpn in range(probe)] == want_channels, (seed, step)
        first = windows.randrange(probe)
        last = windows.randrange(first, probe)
        assert list(new.lanes(first, last)) == want_channels[first:last + 1], (seed, step)
        # memory guard: grown exact-fit, whole stripes, never densely
        assert len(new._chan) <= -(-(high + 1) // channels) * channels, (seed, step)
    return STEPS, ref.total_erases


@pytest.mark.parametrize("channels,pages_per_block,overprovision", CONFIGS)
def test_write_loop_matches_per_page_reference(channels, pages_per_block, overprovision):
    erases = 0
    for seed in range(SEEDS_PER_CONFIG):
        _, erased = run_pair(seed * 7919 + channels, channels, pages_per_block, overprovision)
        erases += erased
    # every configuration reaches GC, so relocation and erase paths are compared
    assert erases > 0


def test_flash_write_plan_channel_order_from_ftl():
    """``FlashSsd`` builds ``unit_work`` in ``pages_per_channel`` order;
    a write starting mid-rotation must list channels from the cursor."""
    from repro.block.request import IoCommand, IoOp
    from repro.constants import BLOCK_SIZE, MIB
    from repro.device.flash import FlashSsd

    ssd = FlashSsd(capacity=64 * MIB)
    ssd.submit([IoCommand(IoOp.WRITE, 0, 3 * BLOCK_SIZE)])
    plan = ssd._plan_command(IoCommand(IoOp.WRITE, 0, 10 * BLOCK_SIZE))
    assert [unit for unit, _ in plan.unit_work] == [3, 4, 5, 6, 7, 0, 1, 2]
    work = dict(plan.unit_work)
    assert work[3] == work[4] == 2 * ssd.params.page_program
    assert work[5] == ssd.params.page_program
