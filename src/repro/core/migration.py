"""The migration primitive every defrag tool shares (Section 4.2.2 / 4.2.3).

Out-of-place filesystems (F2FS with IPU off, Btrfs): rewriting data at the
same file offset allocates new blocks — migration is just read + rewrite.

In-place filesystems (Ext4): the blocks would be reused, so FragPicker
buffers the data, punches the range (``fallocate`` deallocate), allocates a
fresh contiguous area (``fallocate`` allocate), and rewrites — all under a
file lock, with the range list retained until success so the data is
recoverable after a crash (the paper's debugfs argument).

Only generic syscalls are used: ``read``/``write``/``fallocate``/FIEMAP —
no filesystem-internal functions.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import List, NamedTuple, Optional

from ..constants import MIB, block_align_down
from ..fs.base import FallocMode, FileHandle, Filesystem
from .range_list import FileRange
from .recovery import MigrationJournal

#: the app name (and block-tracer tag) FragPicker's own I/O carries
APP = "fragpicker"
#: migration I/O chunk size
IO_SIZE = 1 * MIB


class MigrationOutcome(NamedTuple):
    """What migrating one range cost."""

    finish_time: float
    moved_bytes: int


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry-with-backoff for transient migration faults.

    A range whose migration raises a :class:`~repro.errors.FaultError` is
    retried up to ``attempts`` total tries, pausing (in virtual time) an
    exponentially growing backoff between tries.  Crashes
    (:class:`~repro.errors.InjectedCrash`) are never retried — nothing
    survives a power-off except the journal.
    """

    #: total tries per range (1 = no retries)
    attempts: int = 3
    #: virtual-time pause before the first retry
    backoff: float = 0.002
    #: backoff growth factor per further retry
    multiplier: float = 2.0

    def delay(self, retry_index: int) -> float:
        """Pause before retry ``retry_index`` (0-based)."""
        return self.backoff * self.multiplier ** retry_index


def out_of_place(fs: Filesystem) -> bool:
    """Does a plain rewrite move data on this filesystem right now?"""
    if fs.fs_type == "f2fs":
        # FragPicker disables IPU around migration; honour the knob.
        return not getattr(fs, "ipu_enabled", False)
    return not getattr(fs, "in_place_updates", False)


@contextmanager
def ipu_disabled(fs: Filesystem):
    """F2FS sometimes updates in place; turn that off while migrating."""
    previous = fs.ipu_enabled if fs.fs_type == "f2fs" else None
    if previous is not None:
        fs.set_ipu(False)
    try:
        yield
    finally:
        if previous is not None:
            fs.set_ipu(previous)


def migrate_chunk(
    fs: Filesystem,
    handle: FileHandle,
    write_handle: FileHandle,
    offset: int,
    length: int,
    now: float,
    in_place: bool,
    read_io_size: int,
    journal: Optional[MigrationJournal],
):
    """Move one chunk: the copy primitive every defrag tool shares.

    Buffers the chunk with ``read_io_size`` reads through ``handle``.  On
    an in-place filesystem it then journals the chunk (when a journal is
    given), deallocates the old, scattered blocks and allocates a fresh
    contiguous area.  Finally it rewrites the buffer through
    ``write_handle`` and commits the journal entry.  Yields the running
    virtual time after every read and after the rewrite.
    """
    want_data = fs.page_store.any_content(handle.ino, offset, length)
    buffered: List[bytes] = []
    end = offset + length
    for pos in range(offset, end, read_io_size):
        read = fs.read(handle, pos, min(read_io_size, end - pos), now=now, want_data=want_data)
        if want_data:
            buffered.append(read.data)
        now = read.finish_time
        yield now
    data = b"".join(buffered) if want_data else None
    token = None
    if in_place:
        # journal the chunk before touching the mapping: a crash between
        # punch and rewrite stays recoverable
        if journal is not None:
            token = journal.record(handle.path, handle.ino, offset, length, data)
        now = fs.fallocate(handle, FallocMode.PUNCH_HOLE, offset, length, now=now).finish_time
        now = fs.fallocate(handle, FallocMode.ALLOCATE, offset, length, now=now).finish_time
    now = fs.write(write_handle, offset, length=length, data=data, now=now).finish_time
    if token is not None:
        journal.commit(token)
    yield now


class Migrator:
    """Executes FragPicker's data migration for one filesystem.

    Each range is migrated under the file lock in ``io_size`` chunks by
    :func:`migrate_chunk` (one O_DIRECT read per chunk), then fsynced,
    then truncated back should the block-granular rewrite have grown the
    file.  When a :class:`MigrationJournal` is supplied, every in-place
    chunk is journalled before its range is deallocated, making an
    interrupted migration recoverable (Section 4.2.2's crash-safety
    argument).
    """

    def __init__(self, fs: Filesystem, journal: Optional[MigrationJournal] = None) -> None:
        self.fs = fs
        self.journal = journal

    def migrate_range(self, path: str, file_range: FileRange, now: float = 0.0) -> MigrationOutcome:
        """Move one analysed range into a contiguous area (blocking)."""
        for now in self.migrate_range_steps(path, file_range, now):
            pass
        return MigrationOutcome(now, file_range.length)

    def migrate_range_steps(self, path: str, file_range: FileRange, now: float = 0.0):
        """Generator form of :meth:`migrate_range`: yields the running
        virtual time after every syscall, so a co-running engine can
        interleave foreground traffic at request granularity."""
        fs = self.fs
        inode = fs.inode_of(path)
        # O_DIRECT requires block alignment; an unaligned tail block (rare:
        # the experiments use block-sized files) is left alone — it is a
        # single block and cannot be internally fragmented.
        end = min(file_range.end, block_align_down(inode.size))
        if end <= file_range.start:
            yield now
            return
        original_size = inode.size
        handle = FileHandle(fs, inode.ino, o_direct=True, app=APP)
        fs.lock_file(path, APP)
        try:
            in_place = not out_of_place(fs)
            for pos in range(file_range.start, end, IO_SIZE):
                length = min(IO_SIZE, end - pos)
                for now in migrate_chunk(
                    fs, handle, handle, pos, length, now,
                    in_place, IO_SIZE, self.journal,
                ):
                    yield now
            now = fs.fsync(handle, now=now).finish_time
            yield now
        finally:
            fs.unlock_file(path, APP)
        if inode.size != original_size:
            # the rewrite is block-granular; never let it extend the file
            now = fs.truncate(handle, original_size, now=now).finish_time
            yield now
