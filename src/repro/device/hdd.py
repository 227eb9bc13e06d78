"""Hard disk drive model.

The only device in the paper whose performance depends on *where* data is:
every discontiguous access pays a seek (distance-dependent head movement)
plus average rotational latency.  Fragment distance therefore hurts, and
fragment size keeps helping even beyond the request size because fewer
fragments mean fewer seeks per byte (Section 3.1).

The disk is a single mechanical unit with no command queuing: all work
serializes on one timeline.
"""

from __future__ import annotations

from typing import Dict

from ..block.request import IoOp
from ..constants import GIB
from .base import CommandPlan, StorageDevice

#: bound on the seek-curve memo (distance -> seek time is pure)
SEEK_CACHE_ENTRIES = 4096

#: builds a per-command :class:`CommandPlan` positionally, skipping the
#: generated keyword-parsing ``__new__`` (fields in declaration order)
_plan = tuple.__new__


# 7200 RPM SATA-disk flavoured parameters.

#: Minimum (track-to-track) seek time.
SEEK_MIN = 0.0003
#: Full-stroke seek time.
SEEK_MAX = 0.012
#: Seek-vs-distance profile exponent.  Short and medium seeks dominate
#: fragmented access; a quarter-power profile keeps the curve steep in
#: that regime (classic disk models use sqrt for long seeks only).
SEEK_EXPONENT = 0.25
#: Average rotational latency (half a revolution at 7200 RPM).
ROTATIONAL_LATENCY = 0.00416
#: Media transfer rate, bytes/sec.
TRANSFER_RATE = 180e6
#: Per-command controller overhead.
COMMAND_OVERHEAD = 0.00005


class HddDevice(StorageDevice):
    """Serial-command disk with a moving head."""

    supports_queuing = False

    #: injected latency spike: a bad-sector retry — several re-reads plus
    #: a recalibration pass, tens of milliseconds on a 7200 RPM disk
    fault_latency_spike = 0.050

    def __init__(self, capacity: int = 64 * GIB) -> None:
        super().__init__("hdd", capacity)
        self.head_position = 0
        # The seek curve is a pure function of distance (the head
        # *position* is live state, but the power-law evaluation is not);
        # memoize it — fragmented workloads revisit the same strides.
        # Bounded with FIFO eviction: values are pure, so which entry
        # goes cannot change a seek time.
        self._seek_cache: Dict[int, float] = {}
        self._discard_plan = CommandPlan(controller_time=COMMAND_OVERHEAD)

    def seek_time(self, distance: int) -> float:
        """Head movement time for a byte distance (power-law profile)."""
        if distance <= 0:
            return 0.0
        cache = self._seek_cache
        cached = cache.get(distance)
        if cached is not None:
            return cached
        frac = min(1.0, distance / self.capacity)
        result = SEEK_MIN + (SEEK_MAX - SEEK_MIN) * frac ** SEEK_EXPONENT
        if len(cache) >= SEEK_CACHE_ENTRIES:
            del cache[next(iter(cache))]
        cache[distance] = result
        return result

    def _plan_command(self, op: IoOp, offset: int, length: int) -> CommandPlan:
        if op is IoOp.DISCARD:
            # TRIM is a metadata operation; negligible mechanical work.
            return self._discard_plan
        penalty = 0.0
        distance = abs(offset - self.head_position)
        if distance > 0:
            penalty = self.seek_time(distance) + ROTATIONAL_LATENCY
        mechanical = penalty + length / TRANSFER_RATE
        self.head_position = offset + length
        return _plan(CommandPlan, (
            COMMAND_OVERHEAD, ((0, mechanical),), 0, penalty,
        ))

    def describe(self):
        info = super().describe()
        info.update(kind="hdd", transfer_rate=TRANSFER_RATE)
        return info
