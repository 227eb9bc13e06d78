"""MicroSD card model.

Two properties drive its fragmentation sensitivity in the paper:

1. **No command queuing** — the card accepts one command at a time, so the
   per-command interface overhead is paid serially.  Request splitting
   multiplies commands, which is why the MicroSD NLRS below 128 KiB is the
   largest of the modern devices (Table 1).
2. **Demand-based mapping cache** — the controller has too little RAM for
   the full logical-to-physical map and caches mapping regions on demand.
   Larger fragments touch fewer mapping regions per byte, which is why the
   card keeps gaining *slightly* even after fragments exceed the request
   size (Section 3.2).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from ..block.request import IoOp
from ..constants import GIB, MIB
from .base import CommandPlan, StorageDevice

#: builds the per-command :class:`CommandPlan` positionally, skipping the
#: generated keyword-parsing ``__new__`` (fields in declaration order)
_plan = tuple.__new__


#: bytes/sec media read
READ_RATE = 90e6
#: bytes/sec media write
WRITE_RATE = 30e6
#: serialized per-command interface cost
COMMAND_OVERHEAD = 0.00025
#: bytes covered by one mapping entry
MAPPING_REGION = 1 * MIB
#: flash read of a mapping page
MAPPING_MISS_PENALTY = 0.00006
DISCARD_OVERHEAD = 0.0002


@dataclass(frozen=True)
class MicroSdParams:
    mapping_cache_entries: int = 64  #: LRU capacity


class MicroSdDevice(StorageDevice):
    """Serialized-command card with an LRU mapping-region cache."""

    supports_queuing = False

    #: injected latency spike: the internal housekeeping pause removable
    #: flash is notorious for (block reclaim behind a tiny mapping cache)
    fault_latency_spike = 0.100

    def __init__(self, capacity: int = 32 * GIB, params: Optional[MicroSdParams] = None) -> None:
        super().__init__("microsd", capacity)
        self.params = params if params is not None else MicroSdParams()
        self._mapping_cache: "OrderedDict[int, None]" = OrderedDict()
        self.mapping_hits = 0
        self.mapping_misses = 0
        # NOT memoizable beyond this: the mapping-cache lookup below is
        # the model's state (LRU recency decides the penalty), so plans
        # must be rebuilt per command; only the constant discard plan and
        # hoisted parameters are precomputed.
        self._discard_plan = CommandPlan(
            controller_time=COMMAND_OVERHEAD + DISCARD_OVERHEAD
        )

    def _mapping_lookup(self, offset: int, length: int) -> float:
        """Charge mapping-cache misses for every region the command spans."""
        penalty = 0.0
        entries = self.params.mapping_cache_entries
        cache = self._mapping_cache
        first = offset // MAPPING_REGION
        last = (offset + length - 1) // MAPPING_REGION
        for region in range(first, last + 1):
            if region in cache:
                cache.move_to_end(region)
                self.mapping_hits += 1
            else:
                self.mapping_misses += 1
                penalty += MAPPING_MISS_PENALTY
                cache[region] = None
                if len(cache) > entries:
                    cache.popitem(last=False)
        return penalty

    def _plan_command(self, op: IoOp, offset: int, length: int) -> CommandPlan:
        if op is IoOp.DISCARD:
            return self._discard_plan
        penalty = self._mapping_lookup(offset, length)
        rate = READ_RATE if op is IoOp.READ else WRITE_RATE
        media = penalty + length / rate
        return _plan(CommandPlan, (
            COMMAND_OVERHEAD, ((0, media),), 0, penalty,
        ))

    def describe(self):
        info = super().describe()
        info.update(
            kind="microsd",
            mapping_hits=self.mapping_hits,
            mapping_misses=self.mapping_misses,
        )
        return info
