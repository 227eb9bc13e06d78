"""Crash safety for the in-place migration path (Section 4.2.2).

On Ext4-style filesystems FragPicker deallocates a range before rewriting
it.  The paper argues this is safe: ranges are block-aligned (so
deallocation zeroes nothing), Ext4's journal keeps the deallocated blocks
unreusable until the transaction commits, and FragPicker "does not delete
the file range lists before guaranteeing the success of defragmentation",
so the data can be recovered (with debugfs) even after sudden power-off.

:class:`MigrationJournal` models that contract: before a range is punched
the journal records the range *and the buffered data*; the entry is
retired only after the rewrite succeeds.  After a crash (an abandoned
migration), :meth:`recover` replays every incomplete entry — reallocating
the range and rewriting the buffered data — leaving the file exactly as it
was.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from ..fs.base import FallocMode, FileHandle, Filesystem
from ..obs import hooks as obs_hooks
from ..types import Record


class JournalEntry(NamedTuple):
    """One in-flight migration chunk."""

    path: str
    ino: int
    offset: int
    length: int
    data: Optional[bytes]  # None for content-free (pattern) files


class RecoveryReport(Record):
    """What a recovery pass repaired."""

    __slots__ = _fields = ("entries_replayed", "bytes_restored", "entries_skipped")

    def __init__(self, entries_replayed: int = 0, bytes_restored: int = 0,
                 entries_skipped: int = 0) -> None:
        self.entries_replayed = entries_replayed
        self.bytes_restored = bytes_restored
        self.entries_skipped = entries_skipped  # file disappeared since


class MigrationJournal:
    """Range lists + buffered data kept until migration success."""

    def __init__(self) -> None:
        self._entries: Dict[int, JournalEntry] = {}
        self._next_id = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def pending(self) -> List[JournalEntry]:
        return list(self._entries.values())

    # -- the migration-side protocol -------------------------------------

    def record(self, path: str, ino: int, offset: int, length: int, data: Optional[bytes]) -> int:
        """Persist a chunk about to be punched; returns a token."""
        token = self._next_id
        self._next_id += 1
        self._entries[token] = JournalEntry(path, ino, offset, length, data)
        return token

    def commit(self, token: int) -> None:
        """The rewrite completed: the entry is no longer needed."""
        self._entries.pop(token, None)

    # -- the recovery side -------------------------------------------------

    def recover(self, fs: Filesystem, now: float = 0.0, app: str = "recovery") -> Tuple[float, RecoveryReport]:
        """Replay every incomplete migration chunk (the debugfs step).

        Idempotent: replayed entries are retired as they succeed, so a
        second pass over an already-recovered journal is a no-op.
        """
        report = RecoveryReport()
        obs = obs_hooks.current()
        span = (
            obs.span_start("recovery.replay", now, entries=len(self._entries))
            if obs.enabled else None
        )
        for token in sorted(self._entries):
            entry = self._entries[token]
            if entry.path not in fs.paths or fs.inode_of(entry.path).ino != entry.ino:
                report.entries_skipped += 1
                del self._entries[token]
                continue
            handle = FileHandle(fs, entry.ino, o_direct=True, app=app)
            inode = fs.inode_of(entry.path)
            if inode.lock_holder is not None:
                # the crash left the migration lock behind; recovery owns it
                inode.lock_holder = None
            now = fs.fallocate(
                handle, FallocMode.ALLOCATE, entry.offset, entry.length, now=now
            ).finish_time
            now = fs.write(
                handle, entry.offset, length=entry.length, data=entry.data, now=now
            ).finish_time
            now = fs.fsync(handle, now=now).finish_time
            report.entries_replayed += 1
            report.bytes_restored += entry.length
            del self._entries[token]
        if span is not None:
            obs.recovery_replayed(report.entries_replayed, report.bytes_restored)
            span.attrs.update(
                replayed=report.entries_replayed, skipped=report.entries_skipped
            )
            obs.span_finish(span, now)
        return now, report
