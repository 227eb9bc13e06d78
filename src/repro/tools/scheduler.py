"""Scheduled (recurring) defragmentation — the paper's Section 2.4 context.

Fragmentation recurs quickly (within a week in [30]'s measurements), so
real deployments schedule defragmentation daily/weekly (Windows drive
optimizer, Defraggler; Diskeeper even recommends daily runs for database
and mail servers).  That is precisely when a tool's per-run I/O cost
compounds: this module provides a recurring-defrag actor so experiments
can integrate the cost of defragmentation *as a routine*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List

from ..core.report import DefragReport
from ..errors import InvalidArgument
from ..fs.base import Filesystem
from ..sim.engine import ActorContext

#: builds a fresh background actor for one defrag cycle; receives the
#: report to fill.  Both ConventionalDefragmenter.actor(...) and
#: FragPicker.actor(...) producers fit.
CycleFactory = Callable[[DefragReport], Callable]


@dataclass
class ScheduleOutcome:
    """Accumulated cost of running defragmentation as a routine."""

    cycles: List[DefragReport] = field(default_factory=list)

    @property
    def total_write_bytes(self) -> int:
        return sum(r.write_bytes for r in self.cycles)

    @property
    def total_read_bytes(self) -> int:
        return sum(r.read_bytes for r in self.cycles)

    @property
    def total_elapsed(self) -> float:
        return sum(r.elapsed for r in self.cycles)


class ScheduledDefrag:
    """Runs a defrag cycle every ``period`` of virtual time.

    Use as a co-running actor::

        scheduled = ScheduledDefrag(make_cycle, period=86400.0, cycles=7)
        run_concurrently({"workload": ..., "defrag": scheduled.actor()})
    """

    def __init__(self, make_cycle: CycleFactory, period: float, cycles: int) -> None:
        if period <= 0 or cycles <= 0:
            raise InvalidArgument("period and cycles must be positive")
        self.make_cycle = make_cycle
        self.period = period
        self.cycles = cycles
        self.outcome = ScheduleOutcome()

    def actor(self):
        def _run(ctx):
            next_fire = ctx.now + self.period
            for _ in range(self.cycles):
                # idle until the next scheduled run
                if ctx.now < next_fire:
                    ctx.now = next_fire
                    yield
                report = DefragReport(tool="scheduled")
                cycle_actor = self.make_cycle(report)
                for _ in cycle_actor(ctx):
                    yield
                self.outcome.cycles.append(report)
                next_fire += self.period
        return _run

    def run_synchronously(self, fs: Filesystem, now: float = 0.0) -> float:
        """Back-to-back cycles without a co-running workload."""
        for _ in range(self.cycles):
            now += self.period
            report = DefragReport(tool="scheduled")
            ctx = ActorContext(name="defrag", now=now)
            for _ in self.make_cycle(report)(ctx):
                pass
            now = ctx.now
            self.outcome.cycles.append(report)
        return now
