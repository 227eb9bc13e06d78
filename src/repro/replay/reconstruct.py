"""Workload reconstruction: lift trace records onto the live filesystem.

The TraceTracker argument (PAPERS.md): a stale trace replayed verbatim
bakes in the cache behaviour of the machine it was captured on.  The fix
is *reconstruction* — map each trace entity onto a file of the simulated
filesystem and re-issue its ops through the real syscall layer, so page
cache hits, readahead, delayed allocation, and request splitting are
decided live by *this* stack, not by the dead trace.

Two pieces:

- :class:`PlacementPolicy` — deterministic, seed-keyed mapping from
  trace ``file_id`` to a path on the simulated fs (string-seeded RNG per
  file id, the fleet-spec idiom, so two runs with the same seed place
  every entity identically and replay fingerprints are byte-stable).
  An explicit ``mapping`` overrides the policy per file id — that is how
  the capture->replay round-trip targets the exact files the original
  run touched.

- :class:`Reconstructor` — the streaming executor.  One record in, one
  (or two) syscalls out, O(distinct files) state, O(1) per op.  Nothing
  about the trace is retained; badly-shaped records are repaired and
  **counted**: offsets past the per-file cap wrap (``clamped``),
  unaligned O_DIRECT ranges are block-aligned (``realigned``), reads
  beyond EOF first materialize the missing file body the way the capture
  machine must have had it (``backfill_bytes``), and ops the device has
  no room for are skipped (``no_space``), never raised.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Optional, Tuple

from ..constants import BLOCK_SIZE, MIB, block_align_down, block_align_up
from ..errors import InvalidArgument, NoSpaceError
from ..fs.base import FallocMode, FileHandle, Filesystem
from ..types import IoOp, Record

#: default per-file address-space cap (trace offsets wrap into it)
DEFAULT_FILE_CAP = 16 * MIB
#: default number of directories placed files spread over
DEFAULT_FANOUT = 16
#: directory every placed path lives under
ROOT = "/replay"
#: the app name (and block-tracer tag) replayed syscalls carry
APP = "replay"


class PlacementPolicy:
    """Deterministic seed-keyed ``file_id -> path`` placement."""

    def __init__(
        self,
        seed: int = 0,
        fanout: int = DEFAULT_FANOUT,
        file_cap: int = DEFAULT_FILE_CAP,
        mapping: Optional[Dict[int, str]] = None,
    ) -> None:
        if fanout < 1:
            raise InvalidArgument("fanout must be >= 1")
        if file_cap < BLOCK_SIZE:
            raise InvalidArgument("file_cap must cover at least one block")
        self.seed = seed
        self.fanout = fanout
        self.file_cap = file_cap
        self.mapping = dict(mapping) if mapping else {}
        self._cache: Dict[int, str] = {}

    def path_for(self, file_id: int) -> str:
        explicit = self.mapping.get(file_id)
        if explicit is not None:
            return explicit
        cached = self._cache.get(file_id)
        if cached is None:
            rng = random.Random(f"repro.replay:{self.seed}:place:{file_id}")
            bucket = rng.randrange(self.fanout)
            cached = f"{ROOT}/d{bucket:02d}/f{file_id:08x}"
            self._cache[file_id] = cached
        return cached


class ReconstructionStats(Record):
    """What reconstruction did to make the trace land (all counted)."""

    __slots__ = _fields = (
        "ops_read", "ops_write", "ops_fsync", "bytes_read", "bytes_written",
        "backfill_bytes", "files_created", "clamped", "realigned", "no_space",
        "dropped",
    )

    def __init__(
        self,
        ops_read: int = 0,
        ops_write: int = 0,
        ops_fsync: int = 0,
        bytes_read: int = 0,
        bytes_written: int = 0,
        backfill_bytes: int = 0,
        files_created: int = 0,
        clamped: int = 0,
        realigned: int = 0,
        no_space: int = 0,
        dropped: int = 0,
    ) -> None:
        self.ops_read = ops_read
        self.ops_write = ops_write
        self.ops_fsync = ops_fsync
        self.bytes_read = bytes_read
        self.bytes_written = bytes_written
        #: file body materialized so reads-beyond-EOF have something to hit
        self.backfill_bytes = backfill_bytes
        self.files_created = files_created
        #: offsets wrapped into the per-file cap
        self.clamped = clamped
        #: unaligned O_DIRECT ranges repaired to block alignment
        self.realigned = realigned
        #: ops skipped because the device ran out of space
        self.no_space = no_space
        #: ops dropped for shapes even repair cannot fix
        self.dropped = dropped

    @property
    def ops(self) -> int:
        return self.ops_read + self.ops_write + self.ops_fsync

    def to_dict(self) -> Dict[str, object]:
        return {
            "ops": self.ops,
            "ops_read": self.ops_read,
            "ops_write": self.ops_write,
            "ops_fsync": self.ops_fsync,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "backfill_bytes": self.backfill_bytes,
            "files_created": self.files_created,
            "clamped": self.clamped,
            "realigned": self.realigned,
            "no_space": self.no_space,
            "dropped": self.dropped,
        }


class Reconstructor:
    """Streaming executor: one trace record -> live syscalls.

    ``pacing`` selects the arrival model:

    - ``"afap"`` (default): closed-loop — each op is issued the moment
      the previous one completes.  This is what makes the capture->replay
      round-trip byte-identical to a closed-loop direct run.
    - ``"trace"``: open-loop — each op is issued no earlier than
      ``epoch + (record.time - first_record.time)``, preserving the
      trace's inter-arrival gaps (device idle periods are re-simulated).
    """

    def __init__(
        self,
        fs: Filesystem,
        policy: Optional[PlacementPolicy] = None,
        pacing: str = "afap",
    ) -> None:
        if pacing not in ("afap", "trace"):
            raise InvalidArgument(f"unknown pacing {pacing!r}")
        self.fs = fs
        self.policy = policy if policy is not None else PlacementPolicy()
        self.pacing = pacing
        self.stats = ReconstructionStats()
        #: (file_id, o_direct) -> open handle; O(distinct files) state
        self._handles: Dict[Tuple[int, bool], FileHandle] = {}
        self._trace_epoch: Optional[float] = None
        self._virtual_epoch = 0.0

    # -- plumbing ------------------------------------------------------

    def _handle(self, file_id: int, o_direct: bool) -> FileHandle:
        key = (file_id, o_direct)
        handle = self._handles.get(key)
        if handle is None:
            path = self.policy.path_for(file_id)
            created = not self.fs.exists(path)
            handle = self.fs.open(
                path, o_direct=o_direct, app=APP, create=True
            )
            if created:
                self.stats.files_created += 1
            self._handles[key] = handle
        return handle

    def _shape(self, record: IoOp) -> Optional[Tuple[int, int]]:
        """Repair one record's range; None when it cannot be issued."""
        cap = self.policy.file_cap
        offset, size = record.offset, record.size
        if size <= 0:
            self.stats.dropped += 1
            return None
        if size > cap:
            size = cap
            self.stats.clamped += 1
        if offset + size > cap:
            # wrap rather than truncate: the tail of a huge file is real
            # traffic, it just lands lower in the reconstructed file
            offset = offset % cap
            if offset + size > cap:
                offset = cap - size
            self.stats.clamped += 1
        if record.o_direct and (offset % BLOCK_SIZE or size % BLOCK_SIZE):
            aligned_start = block_align_down(offset)
            aligned_end = block_align_up(offset + size)
            if aligned_end - aligned_start > cap:
                aligned_end = aligned_start + cap
            offset, size = aligned_start, aligned_end - aligned_start
            self.stats.realigned += 1
        return offset, size

    # -- the one-op step ------------------------------------------------

    def apply(self, record: IoOp, now: float) -> float:
        """Issue one record; returns the new virtual time."""
        if self.pacing == "trace":
            if self._trace_epoch is None:
                self._trace_epoch = record.time
                self._virtual_epoch = now
            now = max(now, self._virtual_epoch + record.time - self._trace_epoch)
        try:
            if record.op == "fsync":
                handle = self._handle(record.file_id, record.o_direct)
                result = self.fs.fsync(handle, now=now)
                self.stats.ops_fsync += 1
                return result.finish_time
            shaped = self._shape(record)
            if shaped is None:
                return now
            offset, size = shaped
            handle = self._handle(record.file_id, record.o_direct)
            if record.op == "read":
                inode = self.fs.inode(handle.ino)
                end = offset + size
                if inode.size < end:
                    # the capture machine had this file body; rebuild it
                    grow = end - inode.size
                    now = self.fs.fallocate(
                        handle, FallocMode.ALLOCATE, inode.size, grow, now=now
                    ).finish_time
                    self.stats.backfill_bytes += grow
                result = self.fs.read(handle, offset, size, now=now)
                self.stats.ops_read += 1
                self.stats.bytes_read += size
            elif record.op == "write":
                result = self.fs.write(handle, offset, size, now=now)
                self.stats.ops_write += 1
                self.stats.bytes_written += size
            else:
                self.stats.dropped += 1
                return now
            return result.finish_time
        except NoSpaceError:
            self.stats.no_space += 1
            return now

    # -- the streaming pass ---------------------------------------------

    def run(self, records: Iterable[IoOp], now: float = 0.0) -> float:
        """Replay a whole stream; returns the finish time."""
        apply = self.apply
        for record in records:
            now = apply(record, now)
        return now
