"""blktrace-equivalent traffic accounting.

Counts bytes and commands below the filesystem, split by the ``tag`` each
batch carries, so experiments can report e.g. "the defragmenter issued
163 MB of reads and 137 MB of writes" separately from workload traffic —
exactly what the paper measures with blktrace/iotop.

A batch is counted from the byte sum the device took (``nbytes``), once the
device returned it: a batch that raised is counted by the device alone.

When the observability plane is enabled the tracer also emits each
command into the shared ``repro.obs`` event ring (track ``"block"``), so
Chrome traces show raw block commands without a second private log; the
in-memory ``keep_log`` list of :class:`~repro.block.request.IoCommand`
records remains available for callers that need random access to the
raw commands.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..obs import hooks as obs_hooks
from ..types import Record
from .request import IoCommand, IoOp
from .splitter import DiskRange


_READ = IoOp.READ
_WRITE = IoOp.WRITE


class TrafficCounter(Record):
    """Bytes and commands by op: one tag's traffic, or a whole device's
    (:class:`~repro.device.base.DeviceStats` adds its busy time).

    Unslotted: :meth:`snapshot` and :meth:`delta` read the fields through
    ``vars()``."""

    _fields = ("read_bytes", "write_bytes", "discard_bytes",
               "read_commands", "write_commands", "discard_commands")

    def __init__(self, read_bytes: int = 0, write_bytes: int = 0,
                 discard_bytes: int = 0, read_commands: int = 0,
                 write_commands: int = 0, discard_commands: int = 0) -> None:
        self.read_bytes = read_bytes
        self.write_bytes = write_bytes
        self.discard_bytes = discard_bytes
        self.read_commands = read_commands
        self.write_commands = write_commands
        self.discard_commands = discard_commands

    def add(self, op: IoOp, nbytes: int, n: int = 1) -> None:
        """Count ``n`` commands of ``op`` moving ``nbytes`` between them."""
        if op is _READ:
            self.read_bytes += nbytes
            self.read_commands += n
        elif op is _WRITE:
            self.write_bytes += nbytes
            self.write_commands += n
        else:
            self.discard_bytes += nbytes
            self.discard_commands += n

    @property
    def total_bytes(self) -> int:
        return self.read_bytes + self.write_bytes

    @property
    def total_commands(self) -> int:
        return self.read_commands + self.write_commands + self.discard_commands

    def snapshot(self) -> "TrafficCounter":
        return type(self)(**vars(self))

    def delta(self, earlier: "TrafficCounter") -> "TrafficCounter":
        return type(self)(**{
            name: value - getattr(earlier, name) for name, value in vars(self).items()
        })


class BlockTracer:
    """Per-tag traffic counters plus an optional raw command log."""

    def __init__(self, keep_log: bool = False) -> None:
        self.by_tag: Dict[str, TrafficCounter] = {}
        self.keep_log = keep_log
        self.log: List[IoCommand] = []
        self.obs = obs_hooks.current()
        # pre-resolved sentinel: null-plane observe() never touches the
        # facade, and neither does one that records no per-command data
        self._emitting = self.obs.enabled and self.obs.per_command

    def observe(
        self, op: IoOp, tag: str, ranges: Sequence[DiskRange], nbytes: int,
        now: float = 0.0,
    ) -> None:
        """Count one batch: ``ranges`` are its commands, all of ``op``
        from origin ``tag``, moving ``nbytes`` between them."""
        counter = self.by_tag.get(tag)
        if counter is None:
            counter = self.by_tag[tag] = TrafficCounter()
        if op is _READ:
            counter.read_bytes += nbytes
            counter.read_commands += len(ranges)
        elif op is _WRITE:
            counter.write_bytes += nbytes
            counter.write_commands += len(ranges)
        else:
            counter.discard_bytes += nbytes
            counter.discard_commands += len(ranges)
        if self.keep_log:
            new = tuple.__new__
            self.log.extend(
                new(IoCommand, (op, offset, length, tag))
                for offset, length in ranges
            )
        if self._emitting:
            # ``_value_`` skips the enum descriptor
            value = op._value_
            for offset, length in ranges:
                self.obs.event(
                    "block.cmd", now, track="block",
                    op=value, offset=offset, length=length, tag=tag,
                )

    def tag(self, name: str) -> TrafficCounter:
        """Counter for one tag (empty counter if never seen)."""
        return self.by_tag.get(name, TrafficCounter())
