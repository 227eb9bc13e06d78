"""One admitted FragPicker job, stepped by the fleet controller.

A job wraps a :class:`~repro.core.fragpicker.MigrationCursor` over the
volume's files (bypass plans — the fleet defragments whole files, the
FIEMAP check skips already-contiguous pieces).  Each tick the controller
runs the job's *actor* co-scheduled with the volume's foreground traffic,
so migration and application I/O interleave on the shared device exactly
like the paper's Figure 2/10 co-running experiments.

Before migrating a range of length L the actor must reserve L bytes from
the fleet's :class:`~repro.fleet.admission.TickBudget`; when the budget
runs dry the job parks until next tick.  Transient faults retry inside
FragPicker (bounded backoff, skip-and-report).  A power-off crash ends
the job: the volume recovers via :class:`MigrationJournal` on the spot
and the fleet moves on — one crashed migration never stalls the fleet.
"""

from __future__ import annotations

from ..core import FragPicker, FileRangeList
from ..core.frag_check import range_is_fragmented
from ..core.report import DefragReport
from ..errors import InjectedCrash
from ..faults import hooks as fault_hooks
from .volume import Volume

#: job lifecycle states
RUNNING, DONE, FAILED = "running", "done", "failed"


class DefragJob:
    """One volume's admitted defragmentation, resumable across ticks."""

    def __init__(self, volume: Volume, tick: int) -> None:
        self.volume = volume
        self.admitted_tick = tick
        self.state = RUNNING
        self.migrated_bytes = 0          # reserved payload (budget units)
        self.blocked_ticks = 0           # ticks parked on a dry budget
        self.recovered_entries = 0       # journal entries replayed after a crash
        self.picker = FragPicker(volume.fs)
        # plan only ranges that are fragmented *now*: the budget then
        # charges (almost) exactly what will migrate, instead of paying
        # for ranges the FIEMAP check would skip anyway
        plans = []
        for plan in self.picker.bypass_plans(volume.paths):
            keep = [
                r for r in plan.ranges
                if range_is_fragmented(volume.fs, plan.path, r)
            ]
            if keep:
                plans.append(FileRangeList(plan.ino, plan.path, keep))
        self.cursor = self.picker.cursor(plans=plans, now=volume.now)

    @property
    def name(self) -> str:
        return self.volume.spec.name

    @property
    def report(self) -> DefragReport:
        return self.cursor.report

    def actor(self, budget, until: float):
        """Generator for :func:`repro.sim.engine.run_concurrently`.

        Migrates ranges (one yield each) while the tick window is open
        and the fleet budget holds out; parks otherwise.  Sets ``state``
        when the plan is exhausted or a crash ends the job.
        """
        def _run(ctx):
            blocked = False
            while ctx.now < until:
                item = self.cursor.peek()
                if item is None:
                    break
                _, file_range = item
                if not budget.try_reserve(file_range.length):
                    blocked = True
                    break
                try:
                    ctx.now = self.cursor.migrate_next(ctx.now)
                except InjectedCrash:
                    ctx.now = self._recover_after_crash(ctx.now)
                    self.state = FAILED
                    self.cursor.finish(ctx.now)
                    return
                self.migrated_bytes += file_range.length
                yield
            if blocked:
                self.blocked_ticks += 1
            if self.cursor.exhausted and self.state == RUNNING:
                self.state = DONE
                self.cursor.finish(ctx.now)
        return _run

    def abandon(self, now: float) -> None:
        """Close the report of a job still running when the fleet stops."""
        self.cursor.finish(now)

    def _recover_after_crash(self, now: float) -> float:
        """Power-off mid-migration: replay the journal on the live volume.

        The fault plane is paused during recovery (a recovery pass must
        not be re-crashed by the same storm) and resumed after, mirroring
        the operator-level recovery of :mod:`repro.faults.campaign`.
        """
        plane = fault_hooks.current()
        was_active = getattr(plane, "active", False)
        if was_active:
            plane.deactivate()
        try:
            now, recovery = self.picker.journal.recover(self.volume.fs, now=now)
            self.recovered_entries += recovery.entries_replayed
        finally:
            if was_active:
                plane.activate()
        return now
