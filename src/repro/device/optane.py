"""Optane SSD model (Intel 905P flavoured).

3D-XPoint characteristics the paper relies on:

- **In-place updates**: both reads *and* writes go to the bank determined
  by the address, so fragmentation degrades update performance too
  (unlike flash, Section 2.2 / 3.3).
- **Moderate internal parallelism**: fewer independent banks than a flash
  SSD's channel array (each bank has its own busy timeline).
- **Very low media latency**: per-request host/kernel overheads are a large
  relative cost, which is why the paper's NLRS on Optane exceeds the flash
  SSD's despite the faster medium.

Endurance is tracked as total bytes written against a DWPD budget
(the 905P is rated 10 DWPD over 5 years).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..block.request import IoOp
from ..constants import BLOCK_SIZE, GIB
from .base import CommandPlan, StorageDevice, extend_sums as _extend_sums

#: bound on the plan memo (op x bank phase x page count keys)
PLAN_CACHE_ENTRIES = 4096


#: independent 3D XPoint banks
BANKS = 4
#: media time per 4 KiB page read
PAGE_READ = 0.0000100
#: media time per 4 KiB page write, in place
PAGE_WRITE = 0.0000120
#: controller time, serial per command
COMMAND_OVERHEAD = 0.0000020
#: PCIe 3.0 x4 effective bytes/sec
INTERFACE_RATE = 2600e6
DISCARD_PER_COMMAND = 0.000008
#: endurance rating: drive writes per day over the warranty
DWPD = 10.0
WARRANTY_YEARS = 5.0


# Plan memo: bank layout depends only on (op, first bank phase, page
# count, length) and the model's constants, so plans are pure and
# cacheable without invalidation, and one memo serves every device (a
# cloned device shares it instead of copying it).  Bounded with FIFO
# eviction: which entry goes cannot change a plan.
_PLANS: Dict[Tuple[str, int, int, int], CommandPlan] = {}

# Repeated-addition prefix tables (see base.extend_sums for why bank
# totals are not `n * step`).  They only ever grow, by the same values,
# so every device shares them.
_READ_SUMS: List[float] = [0.0]
_WRITE_SUMS: List[float] = [0.0]


class OptaneSsd(StorageDevice):
    """Address-interleaved in-place storage with few, fast banks."""

    supports_queuing = True

    #: injected latency spike: 3D XPoint has no GC; spikes are short
    #: controller hiccups (thermal throttle, internal ECC retry)
    fault_latency_spike = 0.0005

    def __init__(self, capacity: int = 64 * GIB) -> None:
        super().__init__("optane", capacity)
        self.link_rate = INTERFACE_RATE
        self._discard_plan = CommandPlan(
            controller_time=COMMAND_OVERHEAD + DISCARD_PER_COMMAND
        )

    def bank_of(self, lpn: int) -> int:
        """Banks interleave at page granularity by address (in-place)."""
        return lpn % BANKS

    def _plan_command(self, op: IoOp, offset: int, length: int) -> CommandPlan:
        if op is IoOp.DISCARD:
            return self._discard_plan
        first = offset // BLOCK_SIZE
        last = (offset + length - 1) // BLOCK_SIZE
        cache = _PLANS
        key = (op._value_, first % BANKS, last - first, length)
        plan = cache.get(key)
        if plan is not None:
            return plan
        # Closed-form bank layout: pages interleave round-robin from the
        # first page's bank, so bank (phase+k)%banks serves base+1 pages
        # for k < rem and base pages otherwise — no per-page loop.  Tuple
        # order matches the old loop's first-occurrence order.
        if op is IoOp.READ:
            page_time, sums = PAGE_READ, _READ_SUMS
        else:
            page_time, sums = PAGE_WRITE, _WRITE_SUMS
        banks = BANKS
        pages = last - first + 1
        base, rem = divmod(pages, banks)
        phase = first % banks
        occupied = min(banks, pages)
        _extend_sums(sums, base + 1, page_time)
        high, low = sums[base + 1], sums[base]
        plan = CommandPlan(
            controller_time=COMMAND_OVERHEAD,
            unit_work=tuple(
                ((phase + k) % banks, high if k < rem else low)
                for k in range(occupied)
            ),
            link_bytes=length,
        )
        if len(cache) >= PLAN_CACHE_ENTRIES:
            del cache[next(iter(cache))]
        cache[key] = plan
        return plan

    # -- endurance -------------------------------------------------------

    @property
    def lifetime_write_budget(self) -> float:
        """Total bytes the warranty covers (capacity * DWPD * days)."""
        return self.capacity * DWPD * WARRANTY_YEARS * 365.0

    @property
    def endurance_consumed(self) -> float:
        """Fraction of the warranty write budget consumed so far."""
        return self.stats.write_bytes / self.lifetime_write_budget

    def describe(self):
        info = super().describe()
        info.update(kind="optane", banks=BANKS,
                    endurance_consumed=self.endurance_consumed)
        return info
