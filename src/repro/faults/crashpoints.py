"""The crash-consistency harness (Section 4.2.2 put on trial).

The paper argues FragPicker's in-place migration survives sudden power-off
because range lists and buffered data are retained until success.  This
harness attacks that claim exhaustively rather than anecdotally:

1. **enumerate** — run the migration once under a counting fault plane and
   record every fs-layer syscall it makes (read, fallocate punch/alloc,
   write, fsync, FIEMAP — each one is a place a machine can die);
2. **kill** — re-run the migration from an identical fresh scenario once
   per point, with a :class:`FaultPlan` that injects a crash exactly at
   the Nth syscall;
3. **recover** — invoke :meth:`MigrationJournal.recover`, the paper's
   "range lists + debugfs" step;
4. **verify** — the file contents must be byte-identical to the
   pre-migration state, and the journal must drain.

The harness drives both FragPicker and a journal-carrying conventional
tool, on any of the four device models.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ..constants import GIB, KIB
from ..core import FragPicker, MigrationJournal
from ..core.recovery import RecoveryReport
from ..device import make_device
from ..errors import InjectedCrash
from ..fs import make_filesystem
from ..fs.base import Filesystem
from ..tools.conventional import make_conventional
from . import hooks as fault_hooks
from .plan import FaultPlan

#: tools the harness knows how to drive
TOOLS = ("fragpicker", "conventional")


@dataclass
class Scenario:
    """A fresh filesystem with fragmented, content-bearing files."""

    fs: Filesystem
    paths: List[str]
    now: float

    def contents(self) -> Dict[str, bytes]:
        """Logical file contents (ground truth, independent of caches)."""
        out = {}
        for path in self.paths:
            inode = self.fs.inode_of(path)
            out[path] = self.fs.page_store.read(inode.ino, 0, inode.size)
        return out


def build_scenario(
    device: str = "optane",
    fs_type: str = "ext4",
    files: int = 2,
    pieces: int = 8,
    piece_size: int = 4 * KIB,
    capacity: int = 1 * GIB,
) -> Scenario:
    """Fragmented files with distinctive per-piece content.

    Interleaving each file's writes with a dummy file's forces the
    allocator to scatter the pieces — the fragmentation the tools must
    then migrate (and the crash must not destroy).
    """
    fs = make_filesystem(fs_type, make_device(device, capacity=capacity))
    now = 0.0
    paths = []
    for index in range(files):
        path = f"/crash/file{index}"
        handle = fs.open(path, o_direct=True, create=True, app="setup")
        dummy = fs.open(f"/crash/dummy{index}", o_direct=True, create=True, app="setup")
        for piece in range(pieces):
            payload = bytes([(index * pieces + piece) % 251 + 1]) * piece_size
            now = fs.write(handle, piece * piece_size, data=payload, now=now).finish_time
            now = fs.write(dummy, piece * piece_size, piece_size, now=now).finish_time
        paths.append(path)
    return Scenario(fs, paths, now)


def _make_tool(scenario: Scenario, tool: str) -> Tuple[MigrationJournal, Callable[[], object]]:
    """(journal, run-callable) for a tool over the scenario's files."""
    if tool == "fragpicker":
        picker = FragPicker(scenario.fs)
        return picker.journal, lambda: picker.defragment_bypass(
            scenario.paths, now=scenario.now
        )
    if tool == "conventional":
        journal = MigrationJournal()
        conv = make_conventional(scenario.fs)
        conv.journal = journal
        return journal, lambda: conv.defragment(scenario.paths, now=scenario.now)
    raise ValueError(f"unknown tool {tool!r}; choose from {TOOLS}")


def _run_quietly(run: Callable[[], object]) -> object:
    # the HDD sweep would otherwise emit the (correct, expected)
    # seek-device warning once per crash point
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return run()


def count_migration_syscalls(
    scenario_factory: Callable[[], Scenario], tool: str
) -> int:
    """Dry run: how many fs-layer injection points does the path have?"""
    plane = fault_hooks.FaultPlane(FaultPlan())
    with fault_hooks.use(plane):
        scenario = scenario_factory()
        _journal, run = _make_tool(scenario, tool)
        plane.activate()
        _run_quietly(run)
    return plane.ops_seen("fs")


@dataclass
class CrashPointResult:
    """One kill-and-recover cycle."""

    point: int              # 1-based syscall index the crash targeted
    site: str               # which syscall actually died ("(completed)" if none)
    crashed: bool
    recovered: bool         # contents byte-identical and journal drained
    recovery: RecoveryReport


@dataclass
class CrashSweepReport:
    """Outcome of a full crash-point sweep."""

    device: str
    fs_type: str
    tool: str
    points: List[CrashPointResult]

    @property
    def total(self) -> int:
        return len(self.points)

    @property
    def recovered(self) -> int:
        return sum(1 for p in self.points if p.recovered)

    @property
    def ok(self) -> bool:
        return self.recovered == self.total

    def failures(self) -> List[CrashPointResult]:
        return [p for p in self.points if not p.recovered]

    def summary(self) -> str:
        verdict = "OK" if self.ok else "DATA LOSS"
        return (
            f"{self.tool} on {self.fs_type}/{self.device}: "
            f"{self.recovered}/{self.total} crash points recovered "
            f"byte-identical [{verdict}]"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "device": self.device,
            "fs_type": self.fs_type,
            "tool": self.tool,
            "points": self.total,
            "recovered": self.recovered,
            "ok": self.ok,
            "failed_points": [p.point for p in self.failures()],
        }


def _run_crash_point(
    device: str, fs_type: str, tool: str, files: int, pieces: int,
    piece_size: int, seed: int, point: int,
) -> CrashPointResult:
    """One kill-and-recover cycle from a fresh scenario."""
    plan = FaultPlan(seed).crash("fs", after_ops=point)
    plane = fault_hooks.FaultPlane(plan)
    with fault_hooks.use(plane):
        scenario = build_scenario(device, fs_type, files=files, pieces=pieces,
                                  piece_size=piece_size)
        before = scenario.contents()
        journal, run = _make_tool(scenario, tool)
        plane.activate()
        crashed = False
        try:
            _run_quietly(run)
        except InjectedCrash:
            crashed = True
        plane.deactivate()
        # "reboot": the dead process's locks are gone; replay the journal
        _, recovery = journal.recover(scenario.fs, now=scenario.now)
        after = scenario.contents()
    site = plane.stats.fires[-1].site if plane.stats.fires else "(completed)"
    recovered = after == before and len(journal) == 0
    return CrashPointResult(point, site, crashed, recovered, recovery)


def crash_sweep(
    device: str = "optane",
    fs_type: str = "ext4",
    tool: str = "fragpicker",
    files: int = 2,
    pieces: int = 8,
    piece_size: int = 4 * KIB,
    seed: int = 0,
) -> CrashSweepReport:
    """Kill the migration at every enumerated point and verify recovery.

    Every crash point starts from an identical fresh scenario, so the
    points are independent; they run in point order.
    """
    def factory() -> Scenario:
        return build_scenario(device, fs_type, files=files, pieces=pieces,
                              piece_size=piece_size)

    total = count_migration_syscalls(factory, tool)
    results = [
        _run_crash_point(
            device, fs_type, tool, files, pieces, piece_size, seed, point
        )
        for point in range(1, total + 1)
    ]
    return CrashSweepReport(device, fs_type, tool, results)
