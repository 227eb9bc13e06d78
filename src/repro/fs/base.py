"""The filesystem base class and its syscall surface.

This is the VFS + generic-filesystem layer of the stack.  It owns:

- the namespace (paths, inodes) and per-file extent maps,
- the page cache and readahead for buffered I/O, bypassed by O_DIRECT,
- ``fallocate`` (allocate / punch-hole) with Linux's block-alignment
  semantics,
- syscall monitoring hooks — the attachment point for the eBPF-style
  tracer FragPicker uses,
- journaled metadata write accounting.

Subclasses (:class:`~repro.fs.ext4.Ext4`, :class:`~repro.fs.f2fs.F2fs`,
:class:`~repro.fs.btrfs.Btrfs`) only decide *where writes land*: in place,
at the log head, or copy-on-write.
"""

from __future__ import annotations

import abc
import enum
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..block.request import IoOp
from ..block.scheduler import BlockScheduler, SubmitResult
from ..block.splitter import split_ranges
from ..constants import (
    BLOCK_SIZE,
    MIB,
    block_align_down,
    block_align_up,
)
from ..device.base import StorageDevice
from ..faults import hooks as fault_hooks
from ..obs import hooks as obs_hooks
from ..errors import (
    DeviceIOError,
    FileExists,
    FileLocked,
    FileNotFound,
    InjectedCrash,
    InvalidArgument,
    TornWriteError,
)
from .extent_map import Extent
from .free_space import FreeSpaceManager
from .inode import Inode, PageStore
from .page_cache import PageCache, page_runs
from .readahead import ReadaheadState


class FallocMode(enum.Enum):
    ALLOCATE = "allocate"
    PUNCH_HOLE = "punch_hole"


class SyscallEvent(NamedTuple):
    """What the syscall-layer monitor (eBPF equivalent) observes."""

    op: str            # "read" | "write"
    app: str
    ino: int
    path: str
    offset: int
    size: int
    o_direct: bool
    time: float


class SyscallResult(NamedTuple):
    """Outcome of one syscall."""

    finish_time: float
    latency: float
    requests: int          # block-layer commands this call generated
    bytes_transferred: int
    data: Optional[bytes] = None


class FileHandle:
    """An open file descriptor."""

    def __init__(self, fs: "Filesystem", ino: int, o_direct: bool, app: str) -> None:
        self.fs = fs
        self.ino = ino
        self.o_direct = o_direct
        self.app = app
        self.readahead = ReadaheadState()

    @property
    def path(self) -> str:
        return self.fs.inode(self.ino).path

    @property
    def size(self) -> int:
        return self.fs.inode(self.ino).size


#: host CPU per syscall
SYSCALL_OVERHEAD = 0.0000015
#: page-cache copy, bytes/sec
MEMCPY_RATE = 6e9
#: one metadata transaction
JOURNAL_RECORD_BYTES = 8192
#: per-syscall cost of one attached eBPF probe (the paper measured the
#: analysis phase at <2% overhead on Optane)
MONITOR_OVERHEAD = 0.0000012


class Filesystem(abc.ABC):
    """Abstract filesystem over one device."""

    #: filesystem type name ("ext4" / "f2fs" / "btrfs")
    fs_type: str = "abstract"

    def __init__(
        self,
        device: StorageDevice,
        page_cache_pages: int = 1 << 20,
        metadata_region: int = 64 * MIB,
    ) -> None:
        self.device = device
        #: observability facade (captured at mount time; a null object —
        #: one attribute lookup per syscall — unless obs is enabled)
        self.obs = obs_hooks.current()
        #: fault plane (same pattern: null object unless a plan is armed)
        self.faults = fault_hooks.current()
        # pre-resolved sentinels: with null planes the syscall paths skip
        # facade dispatch (and event construction) entirely; an armed
        # fault plane is consulted only while it is active
        self._observing = self.obs.enabled
        self._faulting = self.faults.enabled
        self.scheduler = BlockScheduler(device)
        self.tracer = self.scheduler.tracer
        if metadata_region >= device.capacity:
            raise InvalidArgument("metadata region exceeds device capacity")
        self.metadata_region = metadata_region
        self.free_space = FreeSpaceManager(metadata_region, block_align_down(device.capacity))
        self.page_store = PageStore()
        self.page_cache = PageCache(page_cache_pages)
        self.inodes: Dict[int, Inode] = {}
        self.paths: Dict[str, int] = {}
        self._next_ino = 1
        self._journal_head = 0
        self._meta_dirty = False
        self._monitors: List[Callable[[SyscallEvent], None]] = []
        self._probe_cost = 0.0  # maintained by attach/detach_monitor
        #: sysfs-like tunables (e.g. F2FS's inplace-update policy knob)
        self.sysfs: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # namespace
    # ------------------------------------------------------------------

    def create(self, path: str) -> Inode:
        """Create an empty file."""
        if path in self.paths:
            raise FileExists(path)
        ino = self._next_ino
        self._next_ino += 1
        inode = Inode(ino=ino, path=path)
        self.inodes[ino] = inode
        self.paths[path] = ino
        return inode

    def open(self, path: str, o_direct: bool = False, app: str = "app", create: bool = False) -> FileHandle:
        if path not in self.paths:
            if not create:
                raise FileNotFound(path)
            self.create(path)
        return FileHandle(self, self.paths[path], o_direct, app)

    def exists(self, path: str) -> bool:
        return path in self.paths

    def inode(self, ino: int) -> Inode:
        try:
            return self.inodes[ino]
        except KeyError:
            raise FileNotFound(f"inode {ino}") from None

    def inode_of(self, path: str) -> Inode:
        try:
            return self.inodes[self.paths[path]]
        except KeyError:
            raise FileNotFound(path) from None

    def listdir(self, prefix: str) -> List[str]:
        """All file paths under a directory prefix, sorted."""
        if not prefix.endswith("/"):
            prefix += "/"
        return sorted(p for p in self.paths if p.startswith(prefix))

    def unlink(self, path: str, now: float = 0.0) -> SyscallResult:
        """Delete a file, returning its blocks to the free pool."""
        inode = self.inode_of(path)
        for extent in inode.extent_map.extents():
            self.free_space.free(extent.disk_offset, extent.length)
        self.page_store.drop(inode.ino)
        self.page_cache.invalidate_inode(inode.ino)
        del self.paths[path]
        del self.inodes[inode.ino]
        self._meta_dirty = True
        finish = now + SYSCALL_OVERHEAD
        if self._observing:
            self.obs.syscall("unlink", finish - now)
            self.obs.fs_cpu(finish - now)
        return SyscallResult(finish, finish - now, 0, 0)

    # ------------------------------------------------------------------
    # monitoring (the eBPF/BCC attachment point)
    # ------------------------------------------------------------------

    def attach_monitor(self, probe: Callable[[SyscallEvent], None]) -> None:
        self._monitors.append(probe)
        # extra syscall latency while eBPF probes are attached
        self._probe_cost = MONITOR_OVERHEAD * len(self._monitors)

    def detach_monitor(self, probe: Callable[[SyscallEvent], None]) -> None:
        self._monitors.remove(probe)
        self._probe_cost = MONITOR_OVERHEAD * len(self._monitors)

    def _emit(self, event: SyscallEvent) -> None:
        for probe in self._monitors:
            probe(event)

    # ------------------------------------------------------------------
    # fault injection (the repro.faults attachment point)
    # ------------------------------------------------------------------

    def _fault_syscall(self, op: str, inode: Inode, offset: int, length: int, now: float):
        """Consult the fault plane at syscall entry (site ``fs.<op>``).

        Raises for ``io_error``/``crash`` fires, advances ``now`` for
        latency fires, and returns ``(now, fire)`` where ``fire`` is
        non-None only for a torn write the caller must enact.
        """
        fire = self.faults.check(f"fs.{op}", op=op, offset=offset, length=length, now=now)
        if fire is None:
            return now, None
        if fire.kind == "io_error":
            raise DeviceIOError(f"injected EIO during {op} of {inode.path}")
        if fire.kind == "crash":
            raise InjectedCrash(f"injected power-off during {op} of {inode.path}")
        if fire.kind == "latency":
            stall = (
                fire.latency if fire.latency is not None
                else self.device.fault_latency_spike
            )
            return now + stall, None
        return now, fire  # torn: the write path tears the data itself

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def read(
        self,
        handle: FileHandle,
        offset: int,
        length: int,
        now: float = 0.0,
        want_data: bool = False,
    ) -> SyscallResult:
        """``pread(2)``: buffered (with readahead) or O_DIRECT."""
        inode = self.inode(handle.ino)
        length = max(0, min(length, inode.size - offset))
        if self._monitors:
            self._emit(
                SyscallEvent("read", handle.app, inode.ino, inode.path, offset, length, handle.o_direct, now)
            )
        if self._faulting and self.faults.active:
            now, _ = self._fault_syscall("read", inode, offset, length, now)
        if length == 0:
            finish = now + SYSCALL_OVERHEAD
            return SyscallResult(finish, finish - now, 0, 0, b"" if want_data else None)
        entry_time = now
        now += self._probe_cost
        if handle.o_direct:
            finish, requests, moved = self._read_direct(handle, inode, offset, length, now)
        else:
            finish, requests, moved = self._read_buffered(handle, inode, offset, length, now)
        data = self.page_store.read(inode.ino, offset, length) if want_data else None
        if self._observing:
            self.obs.syscall("read", finish - entry_time)
            if self._probe_cost:
                self.obs.fs_cpu(self._probe_cost)
        # tuple.__new__ skips the generated keyword-parsing __new__ (one
        # result per read); all five fields, in declaration order
        return tuple.__new__(
            SyscallResult, (finish, finish - entry_time, requests, moved, data)
        )

    # The _read_*/_write_* path helpers return a plain ``(finish,
    # requests, bytes)`` tuple: read/write build the one SyscallResult.

    def _read_direct(self, handle: FileHandle, inode: Inode, offset: int, length: int, now: float) -> Tuple[float, int, int]:
        if offset % BLOCK_SIZE or length % BLOCK_SIZE:
            # Linux O_DIRECT requires logical-block alignment.
            raise InvalidArgument(f"O_DIRECT read misaligned: offset={offset} length={length}")
        ranges = inode.extent_map.commands(((offset, length),))
        submit = self.scheduler.submit(IoOp.READ, ranges, now, handle.app)
        # an empty batch finishes at ``now``, any other one later
        finish = submit.finish_time + SYSCALL_OVERHEAD
        if self._observing:
            self.obs.fs_cpu(SYSCALL_OVERHEAD)
        return finish, submit.commands, length

    def _read_buffered(self, handle: FileHandle, inode: Inode, offset: int, length: int, now: float) -> Tuple[float, int, int]:
        plan = handle.readahead.plan(offset, length, inode.size)
        # ``read`` clips ``length`` to the file, so the plan fetches at
        # least the one page holding ``offset``
        missing = self.page_cache.probe(
            inode.ino, plan.fetch_start // BLOCK_SIZE, (plan.fetch_end - 1) // BLOCK_SIZE
        )
        requests = 0
        finish = now
        if missing:
            submit = self.scheduler.submit(
                IoOp.READ,
                inode.extent_map.commands(
                    [(run.start * BLOCK_SIZE, len(run) * BLOCK_SIZE) for run in missing]
                ),
                now, handle.app,
            )
            requests = submit.commands
            finish = submit.finish_time
            evicted = self.page_cache.fill(inode.ino, missing)
            if evicted:
                finish = self._writeback_pages(_group_pages(evicted), finish).finish_time
        copy_time = length / MEMCPY_RATE
        finish += copy_time + SYSCALL_OVERHEAD
        if self._observing:
            self.obs.fs_cpu(copy_time + SYSCALL_OVERHEAD)
        return finish, requests, length

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    def write(
        self,
        handle: FileHandle,
        offset: int,
        length: int = None,
        data: Optional[bytes] = None,
        now: float = 0.0,
    ) -> SyscallResult:
        """``pwrite(2)``.  Pass ``data`` for content-bearing writes or just
        ``length`` for bulk workloads whose bytes don't matter."""
        if data is not None:
            length = len(data)
        if length is None or length <= 0:
            raise InvalidArgument("write needs data or a positive length")
        inode = self.inode(handle.ino)
        self._check_lock(inode, handle.app)
        if self._monitors:
            self._emit(
                SyscallEvent("write", handle.app, inode.ino, inode.path, offset, length, handle.o_direct, now)
            )
        if self._faulting and self.faults.active:
            now, fire = self._fault_syscall("write", inode, offset, length, now)
            if fire is not None:
                # torn page-store write: only a prefix of the data lands
                torn = fire.torn_length
                if data is not None and torn > 0:
                    self.page_store.write(inode.ino, offset, data[:torn])
                inode.size = max(inode.size, offset + torn)
                raise TornWriteError(
                    f"injected torn write of {inode.path}: {torn}/{length} "
                    "bytes persisted",
                    bytes_written=torn,
                )
        if data is not None:
            self.page_store.write(inode.ino, offset, data)
        inode.size = max(inode.size, offset + length)
        entry_time = now
        now += self._probe_cost
        if handle.o_direct:
            finish, requests, moved = self._write_direct(handle, inode, offset, length, now)
        else:
            finish, requests, moved = self._write_buffered(handle, inode, offset, length, now)
        if self._observing:
            self.obs.syscall("write", finish - entry_time)
            if self._probe_cost:
                self.obs.fs_cpu(self._probe_cost)
        return tuple.__new__(
            SyscallResult, (finish, finish - entry_time, requests, moved, None)
        )

    def _write_direct(self, handle: FileHandle, inode: Inode, offset: int, length: int, now: float) -> Tuple[float, int, int]:
        if offset % BLOCK_SIZE or length % BLOCK_SIZE:
            raise InvalidArgument(f"O_DIRECT write misaligned: offset={offset} length={length}")
        ranges = self._allocate_write(inode, offset, length)
        self._meta_dirty = True
        submit = self.scheduler.submit(
            IoOp.WRITE, split_ranges(ranges), now, handle.app
        )
        finish = max(submit.finish_time, now) + SYSCALL_OVERHEAD
        if self._observing:
            self.obs.fs_cpu(SYSCALL_OVERHEAD)
        return finish, submit.commands, length

    def _write_buffered(self, handle: FileHandle, inode: Inode, offset: int, length: int, now: float) -> Tuple[float, int, int]:
        first = offset // BLOCK_SIZE
        last = (offset + length - 1) // BLOCK_SIZE
        evicted = self.page_cache.mark_dirty(inode.ino, range(first, last + 1))
        finish = now + length / MEMCPY_RATE + SYSCALL_OVERHEAD
        if self._observing:
            self.obs.fs_cpu(finish - now)
        if evicted:
            finish = self._writeback_pages(_group_pages(evicted), finish).finish_time
        return finish, 0, length

    def fsync(self, handle: FileHandle, now: float = 0.0) -> SyscallResult:
        """Flush this inode's dirty pages (delayed allocation happens
        here) and commit metadata."""
        inode = self.inode(handle.ino)
        if self._faulting and self.faults.active:
            now, _ = self._fault_syscall("fsync", inode, 0, inode.size, now)
        dirty = self.page_cache.dirty_pages(inode.ino)
        requests = 0
        finish = now
        if dirty:
            submit = self._writeback_pages({inode.ino: dirty}, now, tag=handle.app)
            requests += submit.commands
            finish = submit.finish_time
        meta = self._commit_metadata(finish, tag="meta")
        requests += meta.commands
        finish = max(finish, meta.finish_time) + SYSCALL_OVERHEAD
        if self._observing:
            self.obs.syscall("fsync", finish - now)
            self.obs.fs_cpu(SYSCALL_OVERHEAD)
        return SyscallResult(finish, finish - now, requests, len(dirty) * BLOCK_SIZE)

    def sync(self, now: float = 0.0) -> SyscallResult:
        """Flush everything (sync(2))."""
        finish = now
        requests = 0
        for ino in list(self.inodes):
            dirty = self.page_cache.dirty_pages(ino)
            if not dirty:
                continue
            submit = self._writeback_pages({ino: dirty}, finish)
            requests += submit.commands
            finish = submit.finish_time
        meta = self._commit_metadata(finish, tag="meta")
        finish = max(finish, meta.finish_time)
        if self._observing:
            self.obs.syscall("sync", finish - now)
        return SyscallResult(finish, finish - now, requests + meta.commands, 0)

    def _writeback_pages(self, by_ino: Dict[int, List[int]], now: float, tag: str = "writeback") -> SubmitResult:
        """Write dirty pages out, allocating blocks as needed.

        ``by_ino`` maps each inode to its sorted dirty pages, in the
        order the inodes are flushed.
        """
        # each page run is split on its own: runs that happen to land
        # back to back on disk stay separate commands
        commands: List[Tuple[int, int]] = []
        for ino, pages in by_ino.items():
            inode = self.inodes.get(ino)
            if inode is None:
                continue  # unlinked while dirty
            for run in page_runs(pages):
                ranges = self._allocate_write(inode, run.start * BLOCK_SIZE, len(run) * BLOCK_SIZE)
                commands.extend(split_ranges(ranges))
            self._meta_dirty = True
            self.page_cache.clean(ino, pages)
        return self.scheduler.submit(IoOp.WRITE, commands, now, tag)

    # ------------------------------------------------------------------
    # fallocate
    # ------------------------------------------------------------------

    def fallocate(
        self,
        handle: FileHandle,
        mode: FallocMode,
        offset: int,
        length: int,
        now: float = 0.0,
    ) -> SyscallResult:
        """``fallocate(2)``: pre-allocate blocks or punch a hole.

        Punching zeroes any non-block-aligned head/tail (Linux semantics —
        the data-loss hazard FragPicker's block alignment avoids) and
        deallocates whole blocks.
        """
        if length <= 0:
            raise InvalidArgument("fallocate length must be positive")
        inode = self.inode(handle.ino)
        self._check_lock(inode, handle.app)
        if self._faulting and self.faults.active:
            now, _ = self._fault_syscall("fallocate", inode, offset, length, now)
        if mode is FallocMode.PUNCH_HOLE:
            self._punch_hole(inode, offset, length)
        else:
            self._allocate_range(inode, offset, length)
        self._meta_dirty = True
        finish = now + SYSCALL_OVERHEAD
        if self._observing:
            self.obs.syscall("fallocate", finish - now)
            self.obs.fs_cpu(finish - now)
        return SyscallResult(finish, finish - now, 0, 0)

    def _punch_hole(self, inode: Inode, offset: int, length: int) -> None:
        end = offset + length
        aligned_start = block_align_up(offset)
        aligned_end = block_align_down(end)
        # zero unaligned edges (content only; blocks stay mapped)
        if offset < aligned_start:
            self.page_store.zero_range(inode.ino, offset, min(aligned_start, end) - offset)
        if aligned_end < end and aligned_end >= aligned_start:
            self.page_store.zero_range(inode.ino, aligned_end, end - aligned_end)
        if aligned_end <= aligned_start:
            return
        removed = inode.extent_map.punch(aligned_start, aligned_end - aligned_start)
        for extent in removed:
            self.free_space.free(extent.disk_offset, extent.length)
        # a hole reads back as zeros
        self.page_store.zero_range(inode.ino, aligned_start, aligned_end - aligned_start)
        # punched pages must not be written back later
        self.page_cache.clean(
            inode.ino, range(aligned_start // BLOCK_SIZE, aligned_end // BLOCK_SIZE)
        )

    def _allocate_range(self, inode: Inode, offset: int, length: int) -> None:
        """Back every hole in the range with blocks, contiguous-best."""
        start = block_align_down(offset)
        end = block_align_up(offset + length)
        holes = inode.extent_map.holes(start, end - start)
        if not holes:
            return
        goal = self._goal_for(inode, start)
        for hole_start, hole_len in holes:
            runs = self.free_space.alloc(hole_len, goal=goal)
            pos = hole_start
            for run_start, run_len in runs:
                inode.extent_map.insert(Extent(pos, run_start, run_len))
                pos += run_len
        inode.size = max(inode.size, offset + length)

    def drop_caches(self) -> int:
        """``echo 3 > /proc/sys/vm/drop_caches``: evict clean page cache.

        Benchmarks use this between setup and measurement so buffered reads
        actually hit storage.  Dirty pages survive (sync first).
        """
        return self.page_cache.drop_clean()

    def truncate(self, handle: FileHandle, size: int, now: float = 0.0) -> SyscallResult:
        """``ftruncate(2)``: grow (hole) or shrink (free tail blocks)."""
        if size < 0:
            raise InvalidArgument("negative truncate size")
        inode = self.inode(handle.ino)
        self._check_lock(inode, handle.app)
        if size < inode.size:
            tail_start = block_align_up(size)
            tail_len = block_align_up(inode.size) - tail_start
            if tail_len > 0:
                removed = inode.extent_map.punch(tail_start, tail_len)
                for extent in removed:
                    self.free_space.free(extent.disk_offset, extent.length)
                self.page_cache.clean(
                    inode.ino, range(tail_start // BLOCK_SIZE, (tail_start + tail_len) // BLOCK_SIZE)
                )
            self.page_store.zero_range(inode.ino, size, max(0, inode.size - size))
        inode.size = size
        self._meta_dirty = True
        finish = now + SYSCALL_OVERHEAD
        if self._observing:
            self.obs.syscall("truncate", finish - now)
            self.obs.fs_cpu(finish - now)
        return SyscallResult(finish, finish - now, 0, 0)

    # ------------------------------------------------------------------
    # locking (FragPicker's migration guard)
    # ------------------------------------------------------------------

    def lock_file(self, path: str, holder: str) -> None:
        inode = self.inode_of(path)
        if inode.lock_holder is not None and inode.lock_holder != holder:
            raise FileLocked(f"{path} locked by {inode.lock_holder}")
        inode.lock_holder = holder

    def unlock_file(self, path: str, holder: str) -> None:
        inode = self.inode_of(path)
        if inode.lock_holder != holder:
            raise FileLocked(f"{path} not locked by {holder}")
        inode.lock_holder = None

    @staticmethod
    def _check_lock(inode: Inode, app: str) -> None:
        if inode.lock_holder is not None and inode.lock_holder != app:
            raise FileLocked(f"{inode.path} locked by {inode.lock_holder}")

    # ------------------------------------------------------------------
    # metadata journal
    # ------------------------------------------------------------------

    def _commit_metadata(self, now: float, tag: str) -> SubmitResult:
        """Commit pending metadata (one journal/checkpoint transaction).

        Metadata-dirtying syscalls only *flag* the journal (jbd2 batches
        transactions); the write happens here, at fsync/sync time.
        """
        if not self._meta_dirty:
            return SubmitResult(now, 0.0, 0, 0.0, 0.0)
        self._meta_dirty = False
        record = JOURNAL_RECORD_BYTES
        offset = self._journal_head
        if offset + record > self.metadata_region:
            offset = 0
        self._journal_head = offset + record
        return self.scheduler.submit(IoOp.WRITE, [(offset, record)], now, tag)

    # ------------------------------------------------------------------
    # personality hook
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _allocate_write(self, inode: Inode, offset: int, length: int) -> List[Tuple[int, int]]:
        """Decide where ``[offset, offset+length)`` lands on disk.

        Must update the extent map (and free displaced blocks for
        out-of-place policies) and return the disk ranges to write, in
        file-offset order.  ``offset``/``length`` are block aligned.
        """

    # -- shared allocation helpers for subclasses -------------------------

    def _goal_for(self, inode: Inode, file_offset: int) -> Optional[int]:
        """Allocation goal: right after the extent preceding this offset."""
        best = inode.extent_map.preceding(file_offset)
        return best.disk_end if best is not None else None

    def _map_new_blocks(self, inode: Inode, offset: int, length: int, goal: Optional[int]) -> List[Tuple[int, int]]:
        """Allocate fresh blocks for the range, free displaced ones."""
        runs = self.free_space.alloc(length, goal=goal)
        ranges: List[Tuple[int, int]] = []
        pos = offset
        for run_start, run_len in runs:
            displaced = inode.extent_map.insert(
                tuple.__new__(Extent, (pos, run_start, run_len))
            )
            for old in displaced:
                self.free_space.free(old.disk_offset, old.length)
            ranges.append((run_start, run_len))
            pos += run_len
        return ranges

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        return {
            "fs_type": self.fs_type,
            "device": self.device.name,
            "files": len(self.inodes),
            "free_bytes": self.free_space.free_bytes,
        }


def _group_pages(keys: Sequence[Tuple[int, int]]) -> Dict[int, List[int]]:
    """Group evicted ``(ino, page)`` keys into ``{ino: sorted pages}``,
    inodes in first-occurrence order (the writeback order)."""
    by_ino: Dict[int, List[int]] = {}
    for ino, page in keys:
        by_ino.setdefault(ino, []).append(page)
    for pages in by_ino.values():
        pages.sort()
    return by_ino
