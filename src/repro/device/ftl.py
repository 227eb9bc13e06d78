"""Page-mapping flash translation layer.

Implements the flash behaviour the paper leans on in Sections 2.2/3.3:

- **Out-of-place updates**: every host write allocates fresh flash pages,
  striped round-robin across channels in arrival order, and invalidates the
  old mapping.  This is why *update* workloads on flash are less sensitive
  to fragmentation than reads — new pages spread over channels regardless
  of LBA contiguity.
- **Read channel affinity**: a read goes to whichever channel the page was
  written on, so a file whose pages were written interleaved with other
  traffic can concentrate on few channels (channel conflicts).
- **Garbage collection & wear**: greedy victim selection, valid-page
  relocation, per-block erase counting.  Defragmentation write traffic
  consumes program/erase cycles — the lifetime argument of Section 1 — and
  the wear counters make that measurable (benchmark E14).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from ..errors import DeviceError


@dataclass
class EraseBlock:
    """One flash erase block: an append-only list of page slots."""

    channel: int
    pages: List[Optional[int]] = field(default_factory=list)
    valid_count: int = 0
    erase_count: int = 0


class FtlWriteResult(NamedTuple):
    """Channel load and GC work produced by one logical write."""

    pages_per_channel: Dict[int, int]
    relocated_pages: int
    erased_blocks: int


class PageMappingFtl:
    """Page-level logical-to-physical mapping with greedy GC."""

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
        #: lpn -> (EraseBlock, slot index)
        self.mapping: Dict[int, Tuple[EraseBlock, int]] = {}
        self._active: List[Optional[EraseBlock]] = [None] * channels
        self._sealed: List[List[EraseBlock]] = [[] for _ in range(channels)]
        self._free_pool: List[List[EraseBlock]] = [[] for _ in range(channels)]
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

    def _take_free_block(self, channel: int) -> Optional[EraseBlock]:
        if self._free_pool[channel]:
            return self._free_pool[channel].pop()
        if self._created_blocks[channel] < self.blocks_per_channel:
            self._created_blocks[channel] += 1
            return EraseBlock(channel)
        return None

    def _free_blocks_available(self, channel: int) -> int:
        return len(self._free_pool[channel]) + (
            self.blocks_per_channel - self._created_blocks[channel]
        )

    # -- program path ----------------------------------------------------

    def _open_block(self, channel: int, failure: str = "out of space (GC failed)") -> EraseBlock:
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

    def _pick_victim(self, channel: int) -> Optional[EraseBlock]:
        sealed = self._sealed[channel]
        if not sealed:
            return None
        best_idx = min(range(len(sealed)), key=lambda i: sealed[i].valid_count)
        if sealed[best_idx].valid_count >= self.pages_per_block:
            return None  # nothing reclaimable
        return sealed.pop(best_idx)

    def _collect(self, victim: EraseBlock) -> int:
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
