"""BCC-style syscall monitor.

Attaches a probe to a filesystem's syscall layer (above the VFS page
cache, so readahead has *not* been applied to what it sees — FragPicker
compensates for that during per-file analysis) and keeps the
:class:`~repro.fs.base.SyscallEvent` of every read and write it accepts,
optionally filtered by application tag.

The ``records`` list is FragPicker's *analysis input* and always exists;
telemetry, however, is not duplicated here: when the observability plane
is enabled each accepted event is also emitted into the shared
``repro.obs`` event ring (track ``"syscall"``), so Chrome traces show the
monitored syscalls without a second bookkeeping path.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

from ..fs.base import Filesystem, SyscallEvent
from ..obs import hooks as obs_hooks


class SyscallMonitor:
    """Collects I/O syscalls from one filesystem.

    Use as a context manager around the observation window::

        with SyscallMonitor(fs, apps={"rocksdb"}) as mon:
            run_workload()
        records = mon.records
    """

    def __init__(
        self,
        fs: Filesystem,
        apps: Optional[Iterable[str]] = None,
    ) -> None:
        self.fs = fs
        self.apps: Optional[Set[str]] = set(apps) if apps is not None else None
        self.records: List[SyscallEvent] = []
        self.obs = obs_hooks.current()
        self._attached = False

    # -- lifecycle ---------------------------------------------------------

    def attach(self) -> "SyscallMonitor":
        if not self._attached:
            self.fs.attach_monitor(self._probe)
            self._attached = True
        return self

    def detach(self) -> None:
        if self._attached:
            self.fs.detach_monitor(self._probe)
            self._attached = False

    def __enter__(self) -> "SyscallMonitor":
        return self.attach()

    def __exit__(self, *exc) -> None:
        self.detach()

    # -- probe --------------------------------------------------------------

    def _probe(self, event: SyscallEvent) -> None:
        if self.apps is not None and event.app not in self.apps:
            return
        if event.size <= 0:
            return
        self.records.append(event)
        if self.obs.enabled:
            self.obs.event(
                f"syscall.{event.op}", event.time, track="syscall",
                app=event.app, ino=event.ino,
                offset=event.offset, size=event.size,
            )

    # -- capture -> corpus -----------------------------------------------

    def dump_binary(self, path: str) -> int:
        """Write the captured window as a ``repro.replay/v1`` binary trace.

        The capture side of the capture->replay round trip: each
        accepted event becomes one packed op record with the inode
        number as the trace ``file_id`` (replay maps it back to a path
        via an explicit :class:`~repro.replay.reconstruct.PlacementPolicy`
        mapping).  Returns the number of records written.
        """
        # late import: repro.replay imports nothing from repro.trace, but
        # keep the base monitor usable without the replay package loaded
        from ..replay.formats import BinaryTraceWriter
        from ..types import IoOp

        with BinaryTraceWriter(path) as writer:
            for event in self.records:
                writer.write_op(IoOp(
                    op=event.op,
                    file_id=event.ino,
                    offset=event.offset,
                    size=event.size,
                    time=event.time,
                    o_direct=event.o_direct,
                ))
            return writer.written
