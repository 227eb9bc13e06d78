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

from array import array
from itertools import compress, count, repeat
from operator import ge
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from ..errors import DeviceError
from ..types import Record

#: log2 of the lpns one l2p chunk covers; a chunk is allocated on the
#: first write into it, so sparse volumes map only what they touch
L2P_CHUNK_BITS = 10
L2P_CHUNK = 1 << L2P_CHUNK_BITS
_CHUNK_MASK = L2P_CHUNK - 1

#: physical page numbers and lpns are stored as C ``int``s
_PAGE_LIMIT = 1 << 31

#: GC runs on a channel while it has fewer free blocks than this
GC_FREE_BLOCK_THRESHOLD = 2


class EraseBlock(Record):
    """One flash erase block: append-only page slots.

    Slot ``s`` is physical page ``base + s`` and ``pages[s]`` is the lpn
    programmed there.  The slot is live while the l2p maps that lpn to
    ``base + s``; an overwrite or discard only moves the l2p entry.
    """

    __slots__ = _fields = ("channel", "base", "pages", "valid_count", "erase_count")

    def __init__(self, channel: int, base: int, pages: array, valid_count: int = 0,
                 erase_count: int = 0) -> None:
        self.channel = channel
        self.base = base
        self.pages = pages
        self.valid_count = valid_count
        self.erase_count = erase_count


class FtlWriteResult(NamedTuple):
    """Channel load and GC work produced by one logical write."""

    first_channel: int
    pages: int
    channels: int
    relocated_pages: int
    erased_blocks: int

    @property
    def pages_per_channel(self) -> Dict[int, int]:
        """Pages per channel in first-occurrence order.

        Round-robin striping: the first ``pages % channels`` channels from
        ``first_channel`` get one page more.
        """
        channels = self.channels
        rounds, extra = divmod(self.pages, channels)
        per_channel: Dict[int, int] = {}
        channel = self.first_channel
        for i in range(min(self.pages, channels)):
            per_channel[channel] = rounds + 1 if i < extra else rounds
            channel += 1
            if channel == channels:
                channel = 0
        return per_channel


#: builds an :class:`FtlWriteResult` from a 5-tuple without the generated
#: keyword-parsing ``__new__`` (one per write on the hot path)
_write_result = tuple.__new__


class PageMappingFtl:
    """Page-level logical-to-physical mapping with greedy GC.

    The l2p is a dict of ``array('i')`` chunks of physical page numbers,
    one per :data:`L2P_CHUNK` lpns touched; a physical page is
    ``block.base + slot``.
    """

    def __init__(
        self,
        logical_pages: int,
        channels: int = 8,
        pages_per_block: int = 256,
        overprovision: float = 0.07,
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
            GC_FREE_BLOCK_THRESHOLD + 2,
            -(-physical_pages // (pages_per_block * channels)),
        )
        if max(logical_pages, per_channel_blocks * channels * pages_per_block) > _PAGE_LIMIT:
            raise DeviceError("page numbers must fit in 32 bits")
        self.blocks_per_channel = per_channel_blocks
        #: chunk -> ``array('i')`` of physical pages, -1 while unmapped
        self._l2p: Dict[int, array] = {}
        #: every created block, indexed by ``ppn // pages_per_block``
        self._blocks: List[EraseBlock] = []
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
        #: ``_stripe`` repeated; ``lanes`` slices the lpns past ``_chan``
        #: out of it.  Grown in whole stripes to the longest such tail
        self._stripes = self._stripe

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
        start = max(first, len(chan))
        offset = start % self.channels
        end = offset + last + 1 - start
        stripes = self._stripes
        if end > len(stripes):
            stripes = self._stripes = self._stripe * -(-end // self.channels)
        return bytes(chan[first:]) + stripes[offset:end]

    @property
    def mapping(self) -> Dict[int, Tuple[EraseBlock, int]]:
        """Read-only ``{lpn: (block, slot)}`` view, built on each access."""
        blocks = self._blocks
        per_block = self.pages_per_block
        view: Dict[int, Tuple[EraseBlock, int]] = {}
        for key, chunk in sorted(self._l2p.items()):
            # only the mapped entries of a chunk reach the Python loop
            mapped = list(map(ge, chunk, repeat(0)))
            lpns = compress(count(key << L2P_CHUNK_BITS), mapped)
            for lpn, ppn in zip(lpns, compress(chunk, mapped)):
                number, slot = divmod(ppn, per_block)
                view[lpn] = (blocks[number], slot)
        return view

    def _grow(self, lpn: int) -> int:
        """Extend ``_chan`` over ``lpn`` with the striped pattern; new length."""
        chan = self._chan
        chan += self._stripe * -(-(lpn + 1 - len(chan)) // self.channels)
        return len(chan)

    def _chunk(self, lpn: int) -> array:
        """The l2p chunk holding ``lpn``, allocated unmapped if new."""
        key = lpn >> L2P_CHUNK_BITS
        chunk = self._l2p.get(key)
        if chunk is None:
            chunk = self._l2p[key] = array("i", [-1]) * L2P_CHUNK
        return chunk

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
            block = EraseBlock(channel, len(self._blocks) * self.pages_per_block, array("i"))
            self._blocks.append(block)
            return block
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
        slot is taken before the page's old copy is released, so a
        channel out of space leaves the old mapping live.  Before any
        call that can raise, ``_next_channel`` and ``host_pages_written``
        are stored, so a failure mid-list leaves the pages already
        written accounted for.
        """
        logical_pages = self.logical_pages
        channels = self.channels
        pages_per_block = self.pages_per_block
        threshold = GC_FREE_BLOCK_THRESHOLD
        blocks_per_channel = self.blocks_per_channel
        blocks = self._blocks
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
        bits = L2P_CHUNK_BITS
        mask = _CHUNK_MASK
        key = -1
        chunk = None
        for lpn in lpns:
            if lpn >= logical_pages or lpn < 0:
                self._next_channel = channel
                self.host_pages_written = host_base + written
                if lpn < 0:
                    raise DeviceError(f"lpn {lpn} is negative")
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
            if lpn >> bits != key:
                key = lpn >> bits
                chunk = self._chunk(lpn)
            index = lpn & mask
            old = chunk[index]
            if old >= 0:
                blocks[old // pages_per_block].valid_count -= 1
            pages = block.pages
            chunk[index] = block.base + len(pages)
            if lpn >= chan_len:
                chan_len = self._grow(lpn)
            chan[lpn] = channel
            pages.append(lpn)
            block.valid_count += 1
            written += 1
            channel = following
        self._next_channel = channel
        self.host_pages_written = host_base + written
        return _write_result(FtlWriteResult, (start, written, channels, relocated, erased))

    def invalidate(self, lpns: Iterable[int]) -> int:
        """Discard: drop mappings, freeing the pages for GC.  Returns count."""
        dropped = 0
        l2p_get = self._l2p.get
        blocks = self._blocks
        per_block = self.pages_per_block
        chan = self._chan
        channels = self.channels
        for lpn in lpns:
            chunk = l2p_get(lpn >> L2P_CHUNK_BITS)
            if chunk is None:
                continue
            index = lpn & _CHUNK_MASK
            ppn = chunk[index]
            if ppn >= 0:
                chunk[index] = -1
                chan[lpn] = lpn % channels
                blocks[ppn // per_block].valid_count -= 1
                dropped += 1
        return dropped

    # -- garbage collection ----------------------------------------------

    def _maybe_gc(self, channel: int) -> Tuple[int, int]:
        relocated = 0
        erased = 0
        while self._free_blocks_available(channel) < GC_FREE_BLOCK_THRESHOLD:
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
        """Relocate the live pages out of ``victim`` and erase it.

        Relocations stay on the victim's channel (intra-channel copyback),
        so ``_chan`` needs no update.  Each page's destination is taken
        before its victim slot is released.  If the channel wedges
        mid-relocation the victim, still holding its unmoved pages, goes
        back to the sealed list.
        """
        moved = 0
        channel = victim.channel
        per_block = self.pages_per_block
        l2p = self._l2p
        block = self._active[channel]
        ppn = victim.base
        try:
            for lpn in victim.pages:
                chunk = l2p[lpn >> L2P_CHUNK_BITS]
                index = lpn & _CHUNK_MASK
                if chunk[index] == ppn:
                    if block is None or len(block.pages) >= per_block:
                        block = self._open_block(channel, "wedged during GC")
                    chunk[index] = block.base + len(block.pages)
                    block.pages.append(lpn)
                    block.valid_count += 1
                    victim.valid_count -= 1
                    moved += 1
                ppn += 1
        except DeviceError:
            self.relocated_pages_total += moved
            self._sealed[channel].append(victim)
            raise
        victim.pages = array("i")
        victim.erase_count += 1
        self.total_erases += 1
        self.relocated_pages_total += moved
        self._free_pool[channel].append(victim)
        return moved
