"""blktrace-equivalent traffic accounting.

Counts bytes and commands below the filesystem, split by the ``tag`` each
command carries, so experiments can report e.g. "the defragmenter issued
163 MB of reads and 137 MB of writes" separately from workload traffic —
exactly what the paper measures with blktrace/iotop.

When the observability plane is enabled the tracer also emits each
command into the shared ``repro.obs`` event ring (track ``"block"``), so
Chrome traces show raw block commands without a second private log; the
in-memory ``keep_log`` list remains available for callers that need
random access to the raw commands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from ..obs import hooks as obs_hooks
from .request import IoCommand, IoOp


@dataclass
class TrafficCounter:
    """Bytes/commands for one tag."""

    read_bytes: int = 0
    write_bytes: int = 0
    discard_bytes: int = 0
    read_commands: int = 0
    write_commands: int = 0
    discard_commands: int = 0

    def account(self, command: IoCommand) -> None:
        if command.op is IoOp.READ:
            self.read_bytes += command.length
            self.read_commands += 1
        elif command.op is IoOp.WRITE:
            self.write_bytes += command.length
            self.write_commands += 1
        else:
            self.discard_bytes += command.length
            self.discard_commands += 1

    @property
    def total_bytes(self) -> int:
        return self.read_bytes + self.write_bytes

    def snapshot(self) -> "TrafficCounter":
        return TrafficCounter(
            self.read_bytes, self.write_bytes, self.discard_bytes,
            self.read_commands, self.write_commands, self.discard_commands,
        )

    def delta(self, earlier: "TrafficCounter") -> "TrafficCounter":
        return TrafficCounter(
            self.read_bytes - earlier.read_bytes,
            self.write_bytes - earlier.write_bytes,
            self.discard_bytes - earlier.discard_bytes,
            self.read_commands - earlier.read_commands,
            self.write_commands - earlier.write_commands,
            self.discard_commands - earlier.discard_commands,
        )


class BlockTracer:
    """Per-tag traffic counters plus an optional raw command log."""

    def __init__(self, keep_log: bool = False) -> None:
        self.by_tag: Dict[str, TrafficCounter] = {}
        self.total = TrafficCounter()
        self.keep_log = keep_log
        self.log: List[IoCommand] = []
        self.obs = obs_hooks.current()
        # pre-resolved sentinel: null-plane observe() never touches the
        # facade, and neither does one that records no per-command data
        self._emitting = self.obs.enabled and self.obs.per_command

    def observe(self, commands: Iterable[IoCommand], now: float = 0.0) -> None:
        emit = self._emitting
        by_tag = self.by_tag
        total_account = self.total.account
        keep_log = self.keep_log
        for command in commands:
            total_account(command)
            counter = by_tag.get(command.tag)
            if counter is None:
                counter = by_tag[command.tag] = TrafficCounter()
            counter.account(command)
            if keep_log:
                self.log.append(command)
            if emit:
                # pid ties the raw command back to its syscall's
                # provenance tree (0 = untracked); ``_value_`` skips the
                # enum descriptor
                self.obs.event(
                    "block.cmd", now, track="block",
                    op=command.op._value_, offset=command.offset,
                    length=command.length, tag=command.tag,
                    pid=command.pid,
                )

    def tag(self, name: str) -> TrafficCounter:
        """Counter for one tag (empty counter if never seen)."""
        return self.by_tag.get(name, TrafficCounter())
