"""FragPicker orchestration: analysis -> hotness -> check -> migrate.

Typical use::

    picker = FragPicker(fs, FragPickerConfig(hotness_criterion=0.5))
    with picker.monitor(apps={"rocksdb"}) as mon:
        run_workload()                       # observation window
    report = picker.defragment(mon.records, paths=db_files, now=now)

or, when the access pattern is known to be sequential::

    report = picker.defragment_bypass(paths=db_files, now=now)

For co-running experiments, :meth:`FragPicker.actor` returns a generator
compatible with :func:`repro.sim.engine.run_concurrently`, yielding after
every migration syscall so foreground traffic interleaves realistically.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from ..errors import DefragError, FaultError, InjectedCrash, NoSpaceError
from ..fs.base import Filesystem, SyscallEvent
from ..trace.syscall_monitor import SyscallMonitor
from .analysis import AnalysisPhase
from .bypass import bypass_range_list
from .frag_check import range_is_fragmented
from .hotness import hotness_filter
from .migration import APP, Migrator, RetryPolicy, ipu_disabled
from .range_list import FileRange, FileRangeList
from .recovery import MigrationJournal
from .report import DefragReport


@dataclass(frozen=True)
class FragPickerConfig:
    """The knobs experiments vary: the hotness criterion, the ablation
    switches and the retry policy.  The migration chunk
    (:data:`~repro.core.migration.IO_SIZE`) and the imitated readahead
    window (:data:`~repro.constants.READAHEAD_SIZE`) are constants."""

    #: fraction of analysed bytes to migrate, hottest first (Section 4.1.3)
    hotness_criterion: float = 1.0
    #: ablation: imitate readahead during analysis
    imitate_readahead: bool = True
    #: ablation: merge overlapped I/Os (Algorithm 1)
    merge_overlaps: bool = True
    #: ablation: FIEMAP fragmentation check before migration
    check_fragmentation: bool = True
    #: bounded retry-with-backoff for transient faults (repro.faults);
    #: a range that keeps failing degrades to skip-and-report
    retry: RetryPolicy = RetryPolicy()


class FragPicker:
    """The defragmentation tool of the paper."""

    def __init__(self, fs: Filesystem, config: Optional[FragPickerConfig] = None) -> None:
        self.fs = fs
        self.config = config = config if config is not None else FragPickerConfig()
        #: crash-safety journal for in-place migrations (Section 4.2.2);
        #: after an interrupted run, ``journal.recover(fs)`` replays any
        #: punched-but-not-rewritten chunks
        self.journal = MigrationJournal()
        self._migrator = Migrator(fs, journal=self.journal)

    # ------------------------------------------------------------------
    # analysis phase
    # ------------------------------------------------------------------

    def monitor(self, apps: Optional[Iterable[str]] = None) -> SyscallMonitor:
        """A syscall monitor to run around the observation window."""
        return SyscallMonitor(self.fs, apps=apps)

    def analyze(
        self,
        records: Iterable[SyscallEvent],
        paths: Optional[Iterable[str]] = None,
        now: float = 0.0,
    ) -> List[FileRangeList]:
        """Analysis phase: trace -> per-file hot range lists.

        ``now`` only timestamps the observability span — analysis is
        host-side work that consumes no virtual time.
        """
        obs = self.fs.obs
        span = obs.span_start("fragpicker.analyze", now) if obs.enabled else None
        inodes = None
        if paths is not None:
            inodes = [self.fs.inode_of(p).ino for p in paths]
        phase = AnalysisPhase(
            imitate_readahead=self.config.imitate_readahead,
            merge=self.config.merge_overlaps,
        )
        analysed = phase.run(self.fs, records, inodes=inodes)
        plans = [
            hotness_filter(range_list, self.config.hotness_criterion)
            for range_list in analysed.values()
        ]
        if span is not None:
            span.attrs.update(
                files=len(plans), ranges=sum(len(p.ranges) for p in plans)
            )
            obs.span_finish(span, now)
        return plans

    def bypass_plans(self, paths: Iterable[str]) -> List[FileRangeList]:
        """Bypass option: sequential-read plans without any tracing."""
        return [
            bypass_range_list(self.fs, path) for path in paths
        ]

    # ------------------------------------------------------------------
    # migration phase
    # ------------------------------------------------------------------

    def defragment(
        self,
        records: Optional[Iterable[SyscallEvent]] = None,
        paths: Optional[Iterable[str]] = None,
        plans: Optional[Sequence[FileRangeList]] = None,
        now: float = 0.0,
    ) -> DefragReport:
        """Run migration for the given trace (or pre-built plans)."""
        if plans is None:
            if records is None:
                raise DefragError("defragment needs records or plans")
            plans = self.analyze(records, paths=paths, now=now)
        self._warn_if_seek_device()
        obs = self.fs.obs
        outer = (
            obs.span_start("fragpicker.defragment", now, files=len(plans))
            if obs.enabled else None
        )
        cursor = self._cursor(plans, now)
        while not cursor.exhausted:
            now = cursor.migrate_next(now)
        report = cursor.finish(now)
        if outer is not None:
            obs.span_finish(outer, now)
        return report

    def defragment_bypass(self, paths: Iterable[str], now: float = 0.0) -> DefragReport:
        """The bypass option end-to-end (FragPicker-B in the figures)."""
        return self.defragment(plans=self.bypass_plans(paths), now=now)

    def cursor(
        self,
        plans: Optional[Sequence[FileRangeList]] = None,
        paths: Optional[Iterable[str]] = None,
        now: float = 0.0,
    ) -> "MigrationCursor":
        """Range-at-a-time stepping for external schedulers (repro.fleet).

        Where :meth:`defragment` runs a whole plan to completion, a cursor
        exposes the same per-range migration loop as discrete steps, so a
        scheduler can pause between ranges — to charge an I/O budget, to
        yield the device to foreground traffic, or to resume next tick.
        Retry/skip semantics per range are identical to :meth:`defragment`.
        """
        if plans is None:
            if paths is None:
                raise DefragError("cursor needs plans or paths")
            plans = self.bypass_plans(paths)
        self._warn_if_seek_device()
        return self._cursor(plans, now)

    def actor(self, plans: Sequence[FileRangeList], report_out: Optional[DefragReport] = None):
        """Generator for :func:`repro.sim.engine.run_concurrently`.

        Yields after every migration syscall; fills ``report_out`` (or a
        fresh report) as it goes.
        """
        def _run(ctx):
            obs = self.fs.obs
            cursor = self._cursor(plans, ctx.now, report_out)
            outer = None
            if obs.enabled and not cursor.exhausted:
                outer = obs.span_start(
                    "fragpicker.defragment", ctx.now, track=ctx.name, files=len(plans),
                )
            while not cursor.exhausted:
                for now in cursor.steps(ctx.now, track=ctx.name):
                    ctx.now = now
                    yield
            cursor.finish(ctx.now)
            if outer is not None:
                obs.span_finish(outer, ctx.now)
        return _run

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _cursor(
        self,
        plans: Sequence[FileRangeList],
        now: float,
        report: Optional[DefragReport] = None,
    ) -> "MigrationCursor":
        """A cursor over ``plans`` filling ``report`` (a fresh one if None)."""
        if report is None:
            report = DefragReport(tool="fragpicker")
        report.begin(self.fs, (plan.path for plan in plans), now)
        report.files_examined = len(plans)
        return MigrationCursor(self, plans, report)

    def _needs_migration(self, path: str, file_range: FileRange) -> bool:
        """The pre-migration check (Section 4.2.1): is the range
        LBA-fragmented?  Subclasses widen what counts as fragmented."""
        return range_is_fragmented(self.fs, path, file_range)

    def _migrate_one(self, plan: FileRangeList, file_range, report: DefragReport, now: float):
        """Generator: yields running time after each migration syscall.

        Transient injected faults (:mod:`repro.faults`) are retried with
        the config's bounded backoff; a range that keeps failing degrades
        to skip-and-report — one sick file never aborts the whole run.
        Crashes propagate: nothing survives a power-off but the journal.
        """
        retry = self.config.retry
        failures = 0
        obs = self.fs.obs
        while True:
            try:
                for now in self._attempt_one(plan, file_range, report, now):
                    yield now
                return
            except InjectedCrash:
                raise
            except FaultError as exc:
                failures += 1
                now, repaired = self._repair_after_fault(now)
                if obs.enabled:
                    obs.event(
                        "fragpicker.fault", now, file=plan.path,
                        error=type(exc).__name__, attempt=failures,
                    )
                if failures >= retry.attempts or not repaired:
                    # an unrepaired journal must stop retries: a fresh
                    # attempt would re-journal the punched zeros and a
                    # later recovery would replay them over the good data
                    report.ranges_failed += 1
                    report.failures[plan.path] = f"{type(exc).__name__}: {exc}"
                    if obs.enabled:
                        obs.migration_failed()
                        obs.event("fragpicker.migration_failed", now, file=plan.path)
                    yield now
                    return
                report.retries += 1
                if obs.enabled:
                    obs.migration_retry()
                now += retry.delay(failures - 1)
                yield now

    def _attempt_one(self, plan: FileRangeList, file_range, report: DefragReport, now: float):
        """One migration try for a range (the pre-faults _migrate_one)."""
        if self.config.check_fragmentation and not self._needs_migration(
            plan.path, file_range
        ):
            report.ranges_skipped_contiguous += 1
            if self.fs.obs.enabled:
                self.fs.obs.event(
                    "fragpicker.skip_contiguous", now, file=plan.path
                )
            yield now
            return
        before = self.fs.tracer.tag(APP).snapshot()
        migrated = True
        try:
            with ipu_disabled(self.fs):
                try:
                    for now in self._migrator.migrate_range_steps(plan.path, file_range, now=now):
                        yield now
                except NoSpaceError:
                    # Fragmented/insufficient free space: skip, like other
                    # tools would fail (Section 6 limitations).
                    report.ranges_skipped_contiguous += 1
                    migrated = False
        finally:
            # account even a faulted attempt's traffic before unwinding
            delta = self.fs.tracer.tag(APP).delta(before)
            report.read_bytes += delta.read_bytes
            report.write_bytes += delta.write_bytes
        if migrated:
            report.ranges_migrated += 1
        yield now

    def _repair_after_fault(self, now: float):
        """Replay pending journal entries so a retry starts from intact data."""
        if len(self.journal) == 0:
            return now, True
        try:
            now, _ = self.journal.recover(self.fs, now=now)
            return now, True
        except InjectedCrash:
            raise
        except FaultError:
            # recovery itself faulted: the entries stay pending (the data
            # remains recoverable later), but retrying is no longer safe
            return now, False

    def _warn_if_seek_device(self) -> None:
        """Section 6: FragPicker ignores frag distance, so on devices with
        seek time it can increase tail latency — the paper recommends
        against using it there."""
        from ..device.hdd import HddDevice  # late import: optional concern

        if isinstance(self.fs.device, HddDevice):
            warnings.warn(
                "FragPicker ignores fragment distance; on seek-time devices "
                "(HDDs) it can increase tail latency — the paper recommends "
                "a conventional defragmenter instead",
                RuntimeWarning,
                stacklevel=3,
            )


class MigrationCursor:
    """One defrag run, steppable range by range (see :meth:`FragPicker.cursor`).

    This is FragPicker's only per-range loop: :meth:`FragPicker.defragment`
    and :meth:`FragPicker.actor` drive a cursor too.  The cursor fills the
    run's :class:`DefragReport`, begun by its creator; :meth:`peek` exposes
    the next range so a scheduler can budget its length before committing,
    :meth:`steps` performs it one syscall at a time (with the picker's
    retry/skip semantics), :meth:`migrate_next` performs it in one go, and
    :meth:`finish` closes the report — also callable early to abandon the
    remainder, e.g. after a crash recovery.
    """

    def __init__(self, picker: FragPicker, plans: Sequence[FileRangeList], report: DefragReport) -> None:
        self.picker = picker
        self.plans = plans
        self.report = report
        # lazy: a file deleted before its turn is skipped
        self._items = (
            (plan, file_range)
            for plan in plans if plan.path in picker.fs.paths
            for file_range in plan.sorted_by_start()
        )
        self._head = None
        self.finished = False

    def peek(self):
        """The next ``(plan, file_range)`` to migrate, or None when done."""
        if self._head is None:
            self._head = next(self._items, None)
        return self._head

    @property
    def exhausted(self) -> bool:
        return self.peek() is None

    def steps(self, now: float, track: str = "main"):
        """Migrate the peeked range, yielding the running virtual time
        after every syscall; the ``fragpicker.migrate`` span goes on
        ``track``."""
        item = self.peek()
        if item is None:
            return
        self._head = None
        plan, file_range = item
        obs = self.picker.fs.obs
        self.report.ranges_examined += 1
        span = (
            obs.span_start(
                "fragpicker.migrate", now, track=track,
                file=plan.path, offset=file_range.start, length=file_range.length,
            )
            if obs.enabled else None
        )
        for now in self.picker._migrate_one(plan, file_range, self.report, now):
            yield now
        if span is not None:
            obs.span_finish(span, now)

    def migrate_next(self, now: float) -> float:
        """Migrate the peeked range; returns the virtual completion time."""
        for now in self.steps(now):
            pass
        return now

    def finish(self, now: float) -> DefragReport:
        """Close (and return) the report; idempotent."""
        if not self.finished:
            self.report.end(self.picker.fs, now)
            self.finished = True
        return self.report
