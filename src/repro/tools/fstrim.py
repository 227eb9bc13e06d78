"""fstrim: discard the filesystem's free space.

A discard command, like any other, can only describe one contiguous LBA
range, so fragmented free space (e.g. right after deleting a fragmented
file) costs many commands — the paper's Section 5.2.2 discard-cost
experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from ..block.request import IoOp
from ..constants import GIB
from ..fs.base import Filesystem

#: the block-tracer tag fstrim's discards carry
APP = "fstrim"


@dataclass(frozen=True)
class FstrimResult:
    elapsed: float
    discarded_bytes: int
    commands: int

    def cost_per_gb(self) -> float:
        """Seconds per GiB discarded (the paper's s/GB metric)."""
        if self.discarded_bytes == 0:
            return 0.0
        return self.elapsed / (self.discarded_bytes / GIB)


class Fstrim:
    """Issue one DISCARD per free-space run."""

    def __init__(self, fs: Filesystem, max_discard_size: int = 2 * GIB) -> None:
        self.fs = fs
        self.max_discard_size = max_discard_size

    def run(self, now: float = 0.0, min_run: int = 0) -> FstrimResult:
        """Trim every free run of at least ``min_run`` bytes."""
        start = now
        discarded = 0
        commands = 0
        for run_start, run_len in self.fs.free_space.runs():
            if run_len < max(min_run, 1):
                continue
            pos = run_start
            remaining = run_len
            while remaining > 0:
                take = min(remaining, self.max_discard_size)
                # fstrim issues trims synchronously, one ioctl at a time
                now = self.fs.scheduler.submit(
                    IoOp.DISCARD, [(pos, take)], now, APP
                ).finish_time
                discarded += take
                commands += 1
                pos += take
                remaining -= take
        if self.fs.obs.enabled and commands:
            # FITRIM is a syscall (ioctl): count its elapsed time into the
            # measured total so the discard traffic's slices stay balanced
            self.fs.obs.syscall("fitrim", now - start)
        return FstrimResult(now - start, discarded, commands)
