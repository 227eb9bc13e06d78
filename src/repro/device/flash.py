"""SATA flash SSD model (Samsung 850 PRO flavoured).

- The controller handles command processing serially (in-storage CPU cost,
  which request splitting multiplies).
- Flash work proceeds in parallel across channels, each with its own busy
  timeline: a command batch that concentrates on few channels (channel
  conflict) loses parallelism, and co-running submitters overlap through
  NCQ.
- The SATA link caps transfer throughput (a serial per-byte resource).

Reads hit the channel the FTL wrote each page to; writes stripe round-robin
(out-of-place), which is why fragmented *updates* hurt less than fragmented
reads on flash (Section 3.3).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..block.request import IoOp
from ..constants import BLOCK_SIZE, GIB
from .base import CommandPlan, StorageDevice, extend_sums as _extend_sums
from .ftl import PageMappingFtl

#: bound on the read-plan memo; its keys are page-channel contents, so
#: entries never go stale and which one is evicted cannot change a plan
READ_PLAN_CACHE_ENTRIES = 4096

#: bound on the write-plan memo, keyed on (channels, first channel,
#: pages, bytes)
WRITE_PLAN_CACHE_ENTRIES = 4096


#: media time per 4 KiB page read
PAGE_READ = 0.000060
#: media time per 4 KiB page program
PAGE_PROGRAM = 0.000120
#: in-storage CPU, serial per command
COMMAND_OVERHEAD = 0.000006
#: SATA 6 Gb/s effective bytes/sec
INTERFACE_RATE = 520e6
DISCARD_PER_COMMAND = 0.00003
#: Cost of one GC page relocation (read + program, partially pipelined).
GC_PAGE_COST = 0.000150

# Plan memos.  A read plan is a pure function of the pages' channel
# sequence and the byte length, so keyed on those it never needs
# dropping when the mapping moves.  A write that relocates nothing
# stripes its pages from the cursor, so its plan is a pure function of
# the channel count, the first channel, the page count (an unaligned
# offset adds one) and the bytes.  Pure plans serve every device, so
# one memo each is shared (a cloned device shares them instead of
# copying them), like ``optane._PLANS``.
_READ_PLANS: Dict[Tuple[bytes, int], CommandPlan] = {}
_WRITE_PLANS: Dict[Tuple[int, int, int, int], CommandPlan] = {}
# repeated-addition prefix table (see base.extend_sums): keeps
# batch-counted channel totals bit-identical to the old accumulation
# loop; it only ever grows, by the same values, so it is shared too
_READ_SUMS: List[float] = [0.0]


@dataclass(frozen=True)
class FlashParams:
    """The FTL geometry (the rest of the calibration is module constants)."""

    channels: int = 8
    pages_per_block: int = 256
    overprovision: float = 0.07


class FlashSsd(StorageDevice):
    """Channel-parallel flash SSD with a page-mapping FTL."""

    supports_queuing = True

    #: injected latency spike: a foreground GC stall on the write path
    fault_latency_spike = 0.010

    def __init__(self, capacity: int = 32 * GIB, params: Optional[FlashParams] = None) -> None:
        super().__init__("flash", capacity)
        self.params = params = params if params is not None else FlashParams()
        self.link_rate = INTERFACE_RATE
        self.ftl = PageMappingFtl(
            logical_pages=capacity // BLOCK_SIZE,
            channels=params.channels,
            pages_per_block=params.pages_per_block,
            overprovision=params.overprovision,
        )
        self._discard_overhead_plan = CommandPlan(
            controller_time=COMMAND_OVERHEAD + DISCARD_PER_COMMAND
        )

    @staticmethod
    def _pages_of(offset: int, length: int) -> range:
        return range(offset // BLOCK_SIZE, (offset + length - 1) // BLOCK_SIZE + 1)

    def _plan_command(self, op: IoOp, offset: int, length: int) -> CommandPlan:
        if op is IoOp.DISCARD:
            self.ftl.invalidate(self._pages_of(offset, length))
            return self._discard_overhead_plan
        if op is IoOp.READ:
            lanes = self.ftl.lanes(
                offset // BLOCK_SIZE, (offset + length - 1) // BLOCK_SIZE
            )
            key = (lanes, length)
            cache = _READ_PLANS
            plan = cache.get(key)
            if plan is not None:
                return plan
            # one table lookup per occupied channel, in first-occurrence
            # order (Counter keeps insertion order), like the old loop
            counts = Counter(lanes)
            sums = _READ_SUMS
            if counts:
                _extend_sums(sums, max(counts.values()), PAGE_READ)
            plan = CommandPlan(
                controller_time=COMMAND_OVERHEAD,
                unit_work=tuple(
                    (channel, sums[n]) for channel, n in counts.items()
                ),
                link_bytes=length,
            )
            if len(cache) >= READ_PLAN_CACHE_ENTRIES:
                del cache[next(iter(cache))]
            cache[key] = plan
            return plan
        result = self.ftl.write(self._pages_of(offset, length))
        relocated = result.relocated_pages
        cache = _WRITE_PLANS
        channels = self.params.channels
        if not relocated:
            key = (channels, result.first_channel, result.pages, length)
            plan = cache.get(key)
            if plan is not None:
                return plan
        per_channel: Dict[int, float] = {}
        for channel, count in result.pages_per_channel.items():
            per_channel[channel] = per_channel.get(channel, 0.0) + count * PAGE_PROGRAM
        if relocated:
            # GC copyback work, spread over the channels it runs on
            share = relocated * GC_PAGE_COST / channels
            for channel in range(channels):
                per_channel[channel] = per_channel.get(channel, 0.0) + share
        plan = CommandPlan(
            controller_time=COMMAND_OVERHEAD,
            unit_work=tuple(per_channel.items()),
            link_bytes=length,
        )
        if not relocated:
            if len(cache) >= WRITE_PLAN_CACHE_ENTRIES:
                del cache[next(iter(cache))]
            cache[key] = plan
        return plan

    def describe(self):
        info = super().describe()
        info.update(
            kind="flash",
            channels=self.params.channels,
            write_amplification=self.ftl.write_amplification,
            total_erases=self.ftl.total_erases,
        )
        return info
