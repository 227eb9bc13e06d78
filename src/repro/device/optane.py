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

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..block.request import IoOp
from ..constants import BLOCK_SIZE, GIB
from .base import CommandPlan, StorageDevice, extend_sums as _extend_sums

#: bound on the per-device plan memo (op x bank phase x page count keys)
PLAN_CACHE_ENTRIES = 4096


@dataclass(frozen=True)
class OptaneParams:
    banks: int = 4
    page_read: float = 0.0000100    #: per 4 KiB page
    page_write: float = 0.0000120   #: per 4 KiB page, in place
    command_overhead: float = 0.0000020  #: controller, serial per command
    interface_rate: float = 2600e6  #: PCIe 3.0 x4 effective
    discard_per_command: float = 0.000008
    dwpd: float = 10.0
    warranty_years: float = 5.0


class OptaneSsd(StorageDevice):
    """Address-interleaved in-place storage with few, fast banks."""

    supports_queuing = True

    #: injected latency spike: 3D XPoint has no GC; spikes are short
    #: controller hiccups (thermal throttle, internal ECC retry)
    fault_latency_spike = 0.0005

    #: provenance records label parallel units as XPoint banks
    provenance_unit = "bank"

    def __init__(self, capacity: int = 64 * GIB, params: Optional[OptaneParams] = None, name: str = "optane") -> None:
        super().__init__(name, capacity)
        self.params = params = params if params is not None else OptaneParams()
        self.link_rate = params.interface_rate
        # Plan memo: bank layout depends only on (op, first bank phase,
        # page count, length) and the model is stateless, so plans are
        # pure and cacheable without invalidation.  Bounded with FIFO
        # eviction: which entry goes cannot change a plan.
        self._plan_cache: Dict[Tuple[str, int, int, int], CommandPlan] = {}
        self._discard_plan = CommandPlan(
            controller_time=params.command_overhead + params.discard_per_command
        )
        # Repeated-addition prefix tables: _sums[step][n] is exactly the
        # float the old per-page loop produced after n additions of
        # `step` — bank totals must stay bit-identical to that loop
        # (bench-guard pins virtual-time figures to the last ulp), so
        # closed-form `n * step` is off the table.
        self._read_sums: List[float] = [0.0]
        self._write_sums: List[float] = [0.0]

    def bank_of(self, lpn: int) -> int:
        """Banks interleave at page granularity by address (in-place)."""
        return lpn % self.params.banks

    def _plan_command(self, op: IoOp, offset: int, length: int) -> CommandPlan:
        if op is IoOp.DISCARD:
            return self._discard_plan
        params = self.params
        first = offset // BLOCK_SIZE
        last = (offset + length - 1) // BLOCK_SIZE
        cache = self._plan_cache
        key = (op._value_, first % params.banks, last - first, length)
        plan = cache.get(key)
        if plan is not None:
            return plan
        # Closed-form bank layout: pages interleave round-robin from the
        # first page's bank, so bank (phase+k)%banks serves base+1 pages
        # for k < rem and base pages otherwise — no per-page loop.  Tuple
        # order matches the old loop's first-occurrence order.
        if op is IoOp.READ:
            page_time, sums = params.page_read, self._read_sums
        else:
            page_time, sums = params.page_write, self._write_sums
        banks = params.banks
        pages = last - first + 1
        base, rem = divmod(pages, banks)
        phase = first % banks
        occupied = min(banks, pages)
        _extend_sums(sums, base + 1, page_time)
        high, low = sums[base + 1], sums[base]
        plan = CommandPlan(
            controller_time=params.command_overhead,
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
        return self.capacity * self.params.dwpd * self.params.warranty_years * 365.0

    @property
    def endurance_consumed(self) -> float:
        """Fraction of the warranty write budget consumed so far."""
        return self.stats.write_bytes / self.lifetime_write_budget

    def describe(self):
        info = super().describe()
        info.update(kind="optane", banks=self.params.banks,
                    endurance_consumed=self.endurance_consumed)
        return info
