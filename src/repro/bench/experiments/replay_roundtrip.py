"""Capture -> corpus -> replay round trip (the lossless-format proof).

The claim behind ``repro replay``: a captured workload, serialized to the
compact binary format and replayed through the reconstruction layer, is
*the same workload* — not approximately, byte-for-byte.  This experiment
proves it the strong way:

1. **Direct run** — a seeded op stream drives a fresh filesystem
   closed-loop, with a :class:`~repro.trace.syscall_monitor.SyscallMonitor`
   attached capturing every read/write at the syscall boundary.
2. **Capture** — the monitor's window is dumped as a ``repro.replay/v1``
   binary corpus (inode numbers become trace file ids).
3. **Replay** — an identically-seeded *fresh* filesystem (same files,
   same virtual epoch, monitor attached so probe costs match) replays
   the corpus through :class:`~repro.replay.reconstruct.Reconstructor`
   with an explicit ino->path mapping.
4. **Verdict** — elapsed virtual time, cache hit/miss counts, and
   device-level traffic must be *equal*, and the trace the replay side's
   monitor recaptures must be byte-identical to the captured corpus.

Any lossy step — a field dropped by the format, a repair the
reconstructor applied where none was needed, a probe-cost asymmetry —
breaks equality, so the round trip doubles as a regression guard over
the whole replay stack.
"""

from __future__ import annotations

import filecmp
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ...constants import MIB
from ...fs.base import FallocMode, Filesystem
from ...replay.generate import TraceProfile, generate_ops
from ...replay.reconstruct import APP, PlacementPolicy, Reconstructor
from ...trace.syscall_monitor import SyscallMonitor
from ..harness import fresh_fs

#: round-trip op stream: no fsyncs — the syscall monitor's capture
#: boundary sees read/write only, so fsyncs would replay asymmetrically
_PROFILE = TraceProfile(
    ops=4000, seed=11, files=12, file_bytes=4 * MIB,
    read_fraction=0.6, fsync_every=0, interarrival=0.0,
)


@dataclass
class SideFigures:
    """One side's measured figures (every field must match the other side)."""

    ops: int = 0
    elapsed_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    device_read_bytes: int = 0
    device_write_bytes: int = 0
    device_read_commands: int = 0
    device_write_commands: int = 0

    def to_dict(self) -> Dict[str, float]:
        return {
            "ops": self.ops,
            "elapsed_s": self.elapsed_s,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "device_read_bytes": self.device_read_bytes,
            "device_write_bytes": self.device_write_bytes,
            "device_read_commands": self.device_read_commands,
            "device_write_commands": self.device_write_commands,
        }


@dataclass
class RoundTripResult:
    direct: SideFigures
    replayed: SideFigures
    captured_records: int = 0
    recaptured_records: int = 0
    trace_bytes: int = 0
    trace_identical: bool = False

    @property
    def figures_identical(self) -> bool:
        return self.direct.to_dict() == self.replayed.to_dict()

    @property
    def ok(self) -> bool:
        return self.figures_identical and self.trace_identical

    def mismatches(self) -> List[str]:
        direct, replayed = self.direct.to_dict(), self.replayed.to_dict()
        return [
            f"{key}: direct {direct[key]!r} != replayed {replayed[key]!r}"
            for key in direct if direct[key] != replayed[key]
        ]

    def report(self) -> str:
        lines = [
            "capture -> corpus -> replay round trip",
            f"  captured   : {self.captured_records} records "
            f"({self.trace_bytes} bytes on disk)",
            f"  direct     : {self.direct.ops} ops in "
            f"{self.direct.elapsed_s:.6f} s, "
            f"{self.direct.cache_hits}/{self.direct.cache_misses} cache h/m",
            f"  replayed   : {self.replayed.ops} ops in "
            f"{self.replayed.elapsed_s:.6f} s, "
            f"{self.replayed.cache_hits}/{self.replayed.cache_misses} cache h/m",
            f"  recaptured : {self.recaptured_records} records, "
            f"byte-identical: {self.trace_identical}",
            f"  figures byte-identical: {self.figures_identical}",
        ]
        lines.extend("  MISMATCH " + m for m in self.mismatches())
        lines.append(f"  round trip {'OK' if self.ok else 'FAILED'}")
        return "\n".join(lines)


def _seeded_side(fs_type: str, device: str) -> Tuple[Filesystem, Dict[int, str], float]:
    """One side's identical starting state: fresh fs, the op stream's
    file set pre-materialized at full size, caches dropped."""
    fs, _ = fresh_fs(fs_type, device)
    paths: Dict[int, str] = {}
    now = 0.0
    for file_id in range(_PROFILE.files):
        path = f"/rt/f{file_id:04d}"
        handle = fs.open(path, o_direct=True, app=APP, create=True)
        now = fs.fallocate(
            handle, FallocMode.ALLOCATE, 0, _PROFILE.file_bytes, now=now
        ).finish_time
        paths[file_id] = path
    fs.drop_caches()
    return fs, paths, now


def _measure(fs: Filesystem, mapping: Dict[int, str], records, now: float) -> SideFigures:
    """Drive ``records`` through ``fs`` closed-loop; snapshot the figures."""
    cache = fs.page_cache.stats
    hits0, misses0 = cache.hits, cache.misses
    traffic0 = fs.tracer.tag(APP).snapshot()
    reconstructor = Reconstructor(
        fs, PlacementPolicy(mapping=mapping, file_cap=_PROFILE.file_bytes)
    )
    finish = reconstructor.run(records, now=now)
    traffic = fs.tracer.tag(APP).delta(traffic0)
    return SideFigures(
        ops=reconstructor.stats.ops,
        elapsed_s=finish - now,
        cache_hits=cache.hits - hits0,
        cache_misses=cache.misses - misses0,
        device_read_bytes=traffic.read_bytes,
        device_write_bytes=traffic.write_bytes,
        device_read_commands=traffic.read_commands,
        device_write_commands=traffic.write_commands,
    )


def run(fs_type: str = "ext4", device: str = "flash") -> RoundTripResult:
    from ...replay.formats import BinaryTraceReader

    workdir = tempfile.mkdtemp(prefix="repro-roundtrip-")
    captured_path = os.path.join(workdir, "captured.bin")
    recaptured_path = os.path.join(workdir, "recaptured.bin")

    # -- side A: direct run, monitor capturing --------------------------
    fs_a, paths_a, epoch = _seeded_side(fs_type, device)
    with SyscallMonitor(fs_a, apps={"replay"}) as monitor_a:
        direct = _measure(fs_a, paths_a, generate_ops(_PROFILE), epoch)
    captured = monitor_a.dump_binary(captured_path)

    # -- side B: fresh identical state, replay the corpus ---------------
    # the corpus keys ops by side A's inode numbers; map them onto side
    # B's paths through side A's id->path table (setup is identical, so
    # inode_of(path) on A *is* the captured file_id)
    fs_b, paths_b, epoch_b = _seeded_side(fs_type, device)
    assert epoch_b == epoch
    mapping = {
        fs_a.inode_of(path).ino: paths_b[file_id]
        for file_id, path in paths_a.items()
    }
    with SyscallMonitor(fs_b, apps={"replay"}) as monitor_b:
        replayed = _measure(
            fs_b, mapping, iter(BinaryTraceReader(captured_path)), epoch
        )
    recaptured = monitor_b.dump_binary(recaptured_path)

    return RoundTripResult(
        direct=direct,
        replayed=replayed,
        captured_records=captured,
        recaptured_records=recaptured,
        trace_bytes=os.path.getsize(captured_path),
        trace_identical=filecmp.cmp(captured_path, recaptured_path, shallow=False),
    )
