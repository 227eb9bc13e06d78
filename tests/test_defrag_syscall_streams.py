"""Golden syscall streams for every defrag tool and entry point.

Each case builds fragmented files, runs one tool through one entry point
and digests everything it did: every fs syscall (op, app, offset, length,
O_DIRECT, issue time from ``fs.attach_monitor`` and virtual finish time),
the report, the final file contents and, for obs-armed cases, every span
and event.  The pinned digests are the tools' behaviour; refactoring the
migration layer must leave each one unchanged.

To re-pin after an intended behaviour change, print ``_digest(case)`` for
every case in ``GOLDEN`` and say in the change log why each moved.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect

import pytest

from repro.constants import BLOCK_SIZE, GIB, KIB, MIB
from repro.core import FragPicker
from repro.core.openchannel import PbaAwareFragPicker
from repro.core.report import DefragReport
from repro.device import make_device
from repro.faults import FaultPlan
from repro.faults import hooks as fault_hooks
from repro.fs import make_filesystem
from repro.obs import hooks as obs_hooks
from repro.obs.hooks import Instrumentation
from repro.sim import run_concurrently
from repro.tools import btrfs_defragment, e4defrag, f2fs_defrag
from repro.workloads.synthetic import make_paper_synthetic_file, sequential_read

PATHS = ["/a", "/b", "/c"]

#: the conventional tool each filesystem is measured with in the paper
CONVENTIONAL = {
    "ext4": e4defrag,
    "f2fs": f2fs_defrag,
    "btrfs": lambda fs: btrfs_defragment(fs, extent_threshold=128 * KIB),
}


class _Recorder:
    """Every syscall the filesystem serves, in order."""

    def __init__(self, fs) -> None:
        self.log = []
        fs.attach_monitor(self._issued)
        for op in ("read", "write", "fallocate", "fsync", "truncate"):
            self._wrap(fs, op)

    def _issued(self, event) -> None:
        self.log.append(("issue", event.op, event.app, event.offset,
                         event.size, event.o_direct, event.time))

    def _wrap(self, fs, op: str) -> None:
        inner = getattr(fs, op)
        signature = inspect.signature(inner)

        def call(handle, *args, **kwargs):
            result = inner(handle, *args, **kwargs)
            bound = signature.bind(handle, *args, **kwargs).arguments
            extra = tuple(
                (name, str(value)) for name, value in bound.items()
                if name in ("mode", "offset", "length", "size")
            )
            self.log.append((op, handle.app, handle.o_direct, extra, result.finish_time))
            return result

        setattr(fs, op, call)


def _concentrate(fs, path: str, pages: int = 32, now: float = 0.0) -> float:
    """A file contiguous in LBA space whose pages sit on one flash channel."""
    handle = fs.open(path, o_direct=True, app="setup", create=True)
    now = fs.write(handle, 0, pages * BLOCK_SIZE, now=now).finish_time
    dummy = fs.open(path + ".d", o_direct=True, app="setup", create=True)
    for i in range(pages):
        now = fs.write(handle, i * BLOCK_SIZE, BLOCK_SIZE, now=now).finish_time
        now = fs.write(dummy, i * 7 * BLOCK_SIZE, 7 * BLOCK_SIZE, now=now).finish_time
    return now


def _build(fs_type: str, device: str):
    fs = make_filesystem(fs_type, make_device(device, capacity=1 * GIB))
    now = make_paper_synthetic_file(fs, "/a", 1 * MIB)
    now = make_paper_synthetic_file(fs, "/b", 512 * KIB, now=now)
    if device == "flash":
        return fs, _concentrate(fs, "/c", now=now)
    handle = fs.open("/c", o_direct=True, app="setup", create=True)
    return fs, fs.write(handle, 0, 256 * KIB, now=now).finish_time


def _reader(fs, reads: int = 48):
    """Foreground actor: 64 KiB O_DIRECT reads cycling over /a."""
    def _run(ctx):
        handle = fs.open("/a", o_direct=True, app="fg")
        size = fs.inode_of("/a").size
        for i in range(reads):
            offset = (i * 64 * KIB) % size
            ctx.now = fs.read(handle, offset, 64 * KIB, now=ctx.now).finish_time
            yield
    return _run


def _co_run(fs, background, now: float) -> float:
    contexts = run_concurrently({"fg": _reader(fs), "defrag": background}, start=now)
    return max(ctx.now for ctx in contexts.values())


# -- entry points --------------------------------------------------------

def _fp_defragment(fs, now, picker_cls=FragPicker):
    picker = picker_cls(fs)
    with picker.monitor(apps={"bench"}) as monitor:
        for path in PATHS:
            now, _ = sequential_read(fs, path, now=now)
    report = picker.defragment(monitor.records, paths=PATHS, now=now)
    return report, report.finished_at


def _fp_bypass(fs, now, picker_cls=FragPicker):
    report = picker_cls(fs).defragment_bypass(PATHS, now=now)
    return report, report.finished_at


def _fp_actor(fs, now, picker_cls=FragPicker):
    picker = picker_cls(fs)
    report = DefragReport(tool="fragpicker")
    now = _co_run(fs, picker.actor(picker.bypass_plans(PATHS), report_out=report), now)
    return report, now


def _fp_cursor(fs, now, picker_cls=FragPicker):
    cursor = picker_cls(fs).cursor(paths=PATHS, now=now)
    while not cursor.exhausted:
        now = cursor.migrate_next(now)
    return cursor.finish(now), now


def _conv_defragment(fs, now):
    report = CONVENTIONAL[fs.fs_type](fs).defragment(PATHS + ["/missing"], now=now)
    return report, report.finished_at


def _conv_actor(fs, now):
    tool = CONVENTIONAL[fs.fs_type](fs)
    report = DefragReport(tool=tool.tool_name)
    now = _co_run(fs, tool.actor(PATHS, report_out=report), now)
    return report, now


ENTRY_POINTS = {
    "fp-defragment": _fp_defragment,
    "fp-bypass": _fp_bypass,
    "fp-actor": _fp_actor,
    "fp-cursor": _fp_cursor,
    "conv-defragment": _conv_defragment,
    "conv-actor": _conv_actor,
    "pba-defragment": lambda fs, now: _fp_defragment(fs, now, PbaAwareFragPicker),
    "pba-bypass": lambda fs, now: _fp_bypass(fs, now, PbaAwareFragPicker),
    "pba-actor": lambda fs, now: _fp_actor(fs, now, PbaAwareFragPicker),
    "pba-cursor": lambda fs, now: _fp_cursor(fs, now, PbaAwareFragPicker),
}


def _digest(case: str) -> str:
    """``<entry>/<fs>[/obs][/fault]`` -> sha256 prefix of the run."""
    entry, fs_type, *flags = case.split("/")
    device = "flash" if entry.startswith("pba") else "optane"
    obs = Instrumentation() if "obs" in flags else obs_hooks.NULL
    plane = None
    if "fault" in flags:
        plane = fault_hooks.arm(FaultPlan().io_error("fs.write", max_fires=1), active=False)
    try:
        with obs_hooks.use(obs):
            fs, now = _build(fs_type, device)
            recorder = _Recorder(fs)
            if plane is not None:
                plane.activate()
            report, now = ENTRY_POINTS[entry](fs, now)
    finally:
        fault_hooks.disarm()
    record = [
        recorder.log,
        [dataclasses.asdict(report)],
        now,
        [hashlib.sha256(fs.page_store.read(fs.inode_of(p).ino, 0, fs.inode_of(p).size)
                        or b"").hexdigest() for p in PATHS],
    ]
    if obs.enabled:
        record.append([
            (s.name, s.track, s.start, s.end, sorted(s.attrs.items()))
            for s in obs.spans.finished_spans()
        ])
        record.append([(e.name, e.time, e.track, sorted(e.attrs.items()))
                       for e in obs.spans.events
                       if e.name.startswith(("fragpicker.", "defrag"))])
    return hashlib.sha256(repr(record).encode()).hexdigest()[:16]


GOLDEN = {
    "conv-actor/btrfs": "1b42d69433ab9a73",
    "conv-actor/btrfs/obs": "2854fba0486d5cb9",
    "conv-actor/ext4": "792a84993edcc23a",
    "conv-actor/ext4/obs": "0e2b4d51f21b693c",
    "conv-actor/f2fs": "5ea85d91cd49a985",
    "conv-actor/f2fs/obs": "02f7f0be6fcba42e",
    "conv-defragment/btrfs": "4e34c5e667b66fc1",
    "conv-defragment/btrfs/obs": "55e16e7be2ddac91",
    "conv-defragment/ext4": "5fe7e112780b27a7",
    "conv-defragment/ext4/obs": "75989793a890e1e5",
    "conv-defragment/f2fs": "81c333e2df637083",
    "conv-defragment/f2fs/obs": "c2d0da61e8690dfd",
    "fp-actor/btrfs": "f1f05821afbcb785",
    "fp-actor/btrfs/fault/obs": "49367bc18b9d5204",
    "fp-actor/btrfs/obs": "3d0239116f497dde",
    "fp-actor/ext4": "bb69cd47777cb949",
    "fp-actor/ext4/fault/obs": "e79a953ce3237a9e",
    "fp-actor/ext4/obs": "2453a2d3dfa49fe4",
    "fp-actor/f2fs": "f1f05821afbcb785",
    "fp-actor/f2fs/fault/obs": "49367bc18b9d5204",
    "fp-actor/f2fs/obs": "3d0239116f497dde",
    "fp-bypass/btrfs": "64d533085acc22be",
    "fp-bypass/btrfs/fault": "2a6c5fd90afc0ca5",
    "fp-bypass/btrfs/obs": "26736f7820338ee9",
    "fp-bypass/ext4": "2f31f137492c5245",
    "fp-bypass/ext4/fault": "ae00adace4b0c443",
    "fp-bypass/ext4/obs": "1615f3a50c89dacb",
    "fp-bypass/f2fs": "64d533085acc22be",
    "fp-bypass/f2fs/fault": "2a6c5fd90afc0ca5",
    "fp-bypass/f2fs/obs": "26736f7820338ee9",
    "fp-cursor/btrfs": "64d533085acc22be",
    "fp-cursor/btrfs/obs": "fd56557565390e54",
    "fp-cursor/ext4": "2f31f137492c5245",
    "fp-cursor/ext4/obs": "570afc8fdddab72a",
    "fp-cursor/f2fs": "64d533085acc22be",
    "fp-cursor/f2fs/obs": "fd56557565390e54",
    "fp-defragment/btrfs": "525b2bcb0617066c",
    "fp-defragment/btrfs/obs": "b193b767f3900493",
    "fp-defragment/ext4": "6b407dc23ba50c02",
    "fp-defragment/ext4/obs": "ba8f473e25170e8c",
    "fp-defragment/f2fs": "525b2bcb0617066c",
    "fp-defragment/f2fs/obs": "b193b767f3900493",
    "pba-actor/btrfs": "264b13ca66149906",
    "pba-actor/ext4": "128073d8bd9db2d2",
    "pba-actor/f2fs": "c75a22b40afda828",
    "pba-bypass/btrfs": "8c31de06fbcb863d",
    "pba-bypass/ext4": "beddc092e76ad48c",
    "pba-bypass/f2fs": "a5b2e2154e6d8fbf",
    "pba-cursor/btrfs": "8c31de06fbcb863d",
    "pba-cursor/ext4": "beddc092e76ad48c",
    "pba-cursor/f2fs": "a5b2e2154e6d8fbf",
    "pba-defragment/btrfs": "cc2b4e5d607d3918",
    "pba-defragment/ext4": "7da7bfe20721e34f",
    "pba-defragment/f2fs": "991bd972ff85e659",
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_syscall_stream_is_pinned(case):
    assert _digest(case) == GOLDEN[case]
