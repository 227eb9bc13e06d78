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
from typing import Dict, Optional, Tuple

from ..block.request import IoCommand, IoOp
from ..constants import BLOCK_SIZE, GIB
from .base import CommandPlan, StorageDevice, extend_sums as _extend_sums
from .ftl import PageMappingFtl

#: bound on the read-plan memo; its keys are page-channel contents, so
#: entries never go stale and which one is evicted cannot change a plan
READ_PLAN_CACHE_ENTRIES = 4096

#: bound on the write-plan memo, keyed on (first channel, pages, bytes)
WRITE_PLAN_CACHE_ENTRIES = 4096


@dataclass(frozen=True)
class FlashParams:
    channels: int = 8
    page_read: float = 0.000060      #: per 4 KiB page
    page_program: float = 0.000120   #: per 4 KiB page
    command_overhead: float = 0.000006  #: in-storage CPU, serial per command
    interface_rate: float = 520e6    #: SATA 6 Gb/s effective bytes/sec
    discard_per_command: float = 0.00003
    pages_per_block: int = 256
    overprovision: float = 0.07
    #: Cost of one GC page relocation (read + program, partially pipelined).
    gc_page_cost: float = 0.000150


class FlashSsd(StorageDevice):
    """Channel-parallel flash SSD with a page-mapping FTL."""

    supports_queuing = True

    #: injected latency spike: a foreground GC stall on the write path
    fault_latency_spike = 0.010

    #: provenance records label parallel units as flash channels
    provenance_unit = "channel"

    def __init__(self, capacity: int = 32 * GIB, params: Optional[FlashParams] = None, name: str = "flash") -> None:
        super().__init__(name, capacity)
        self.params = params = params if params is not None else FlashParams()
        self.link_rate = params.interface_rate
        self.ftl = PageMappingFtl(
            logical_pages=capacity // BLOCK_SIZE,
            channels=params.channels,
            pages_per_block=params.pages_per_block,
            overprovision=params.overprovision,
        )
        # A read plan is a pure function of the pages' channel sequence
        # and the byte length, so keyed on those it never needs dropping
        # when the mapping moves.
        self._read_plan_cache: Dict[Tuple[bytes, int], CommandPlan] = {}
        # A write that relocates nothing stripes its pages from the
        # cursor, so its plan is a pure function of the first channel,
        # the page count (an unaligned offset adds one) and the bytes.
        self._write_plan_cache: Dict[Tuple[int, int, int], CommandPlan] = {}
        # repeated-addition prefix table (see base.extend_sums): keeps
        # batch-counted channel totals bit-identical to the old
        # accumulation loop
        self._read_sums = [0.0]
        self._discard_overhead_plan = CommandPlan(
            controller_time=params.command_overhead + params.discard_per_command
        )

    def _pages_of(self, command: IoCommand) -> range:
        first = command.offset // BLOCK_SIZE
        last = (command.offset + command.length - 1) // BLOCK_SIZE
        return range(first, last + 1)

    def _plan_command(self, command: IoCommand) -> CommandPlan:
        if command.op is IoOp.DISCARD:
            self.ftl.invalidate(self._pages_of(command))
            return self._discard_overhead_plan
        if command.op is IoOp.READ:
            offset = command.offset
            lanes = self.ftl.lanes(
                offset // BLOCK_SIZE, (offset + command.length - 1) // BLOCK_SIZE
            )
            key = (lanes, command.length)
            cache = self._read_plan_cache
            plan = cache.get(key)
            if plan is not None:
                return plan
            # one table lookup per occupied channel, in first-occurrence
            # order (Counter keeps insertion order), like the old loop
            counts = Counter(lanes)
            sums = self._read_sums
            if counts:
                _extend_sums(sums, max(counts.values()), self.params.page_read)
            plan = CommandPlan(
                controller_time=self.params.command_overhead,
                unit_work=tuple(
                    (channel, sums[n]) for channel, n in counts.items()
                ),
                link_bytes=command.length,
            )
            if len(cache) >= READ_PLAN_CACHE_ENTRIES:
                del cache[next(iter(cache))]
            cache[key] = plan
            return plan
        result = self.ftl.write(self._pages_of(command))
        relocated = result.relocated_pages
        cache = self._write_plan_cache
        if not relocated:
            key = (result.first_channel, result.pages, command.length)
            plan = cache.get(key)
            if plan is not None:
                return plan
        per_channel: Dict[int, float] = {}
        for channel, count in result.pages_per_channel.items():
            per_channel[channel] = per_channel.get(channel, 0.0) + count * self.params.page_program
        if relocated:
            # GC copyback work, spread over the channels it runs on
            share = relocated * self.params.gc_page_cost / self.params.channels
            for channel in range(self.params.channels):
                per_channel[channel] = per_channel.get(channel, 0.0) + share
        plan = CommandPlan(
            controller_time=self.params.command_overhead,
            unit_work=tuple(per_channel.items()),
            link_bytes=command.length,
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
