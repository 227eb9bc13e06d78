"""Ablation E12: the request-splitting mechanism itself.

Counts block-layer commands per 128 KiB read syscall as a function of
fragment size, and decomposes the latency into host (kernel) time vs
device time — quantifying the paper's Section 2.2 claims that splitting
(i) multiplies kernel work, (ii) multiplies commands over the interface,
and (iii) is what defragmentation actually removes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ...constants import KIB, MIB, READAHEAD_SIZE
from ...stats.tables import format_table
from ...workloads.synthetic import FragmentSpec, make_fragmented_file
from ..harness import fresh_fs


@dataclass
class SplitPoint:
    frag_size: int
    commands_per_syscall: float
    kernel_time_us: float
    device_time_us: float
    latency_us: float


@dataclass
class SplittingResult:
    device: str
    points: List[SplitPoint]

    @property
    def by_size(self) -> Dict[int, SplitPoint]:
        return {p.frag_size: p for p in self.points}

    @property
    def latency_rises(self) -> int:
        """Steps to a larger fragment size at which latency grows."""
        return sum(b.latency_us > a.latency_us for a, b in zip(self.points, self.points[1:]))

    def report(self) -> str:
        headers = ["frag KiB", "cmds/syscall", "kernel us", "device us", "latency us"]
        rows = [
            [p.frag_size // KIB, p.commands_per_syscall, p.kernel_time_us,
             p.device_time_us, p.latency_us]
            for p in self.points
        ]
        return f"[{self.device}]\n" + format_table(headers, rows)


def run(device: str = "optane", file_size: int = 8 * MIB,
        frag_sizes: List[int] = None) -> SplittingResult:
    frag_sizes = frag_sizes or [4 * KIB, 8 * KIB, 16 * KIB, 32 * KIB, 64 * KIB, 128 * KIB]
    points: List[SplitPoint] = []
    for frag_size in frag_sizes:
        fs, _ = fresh_fs("ext4", device)
        now = make_fragmented_file(
            fs, "/t", file_size, FragmentSpec(frag_size, 1024 * KIB), fallocate_dummy=True
        )
        handle = fs.open("/t", o_direct=True, app="bench")
        syscalls = 0
        commands = 0
        kernel = 0.0
        device_time = 0.0
        latency = 0.0
        before_kernel = fs.scheduler.kernel_time_total
        before_busy = fs.device.stats.busy_time
        for offset in range(0, file_size, READAHEAD_SIZE):
            result = fs.read(handle, offset, READAHEAD_SIZE, now=now)
            latency += result.latency
            commands += result.requests
            syscalls += 1
            now = result.finish_time
        kernel = fs.scheduler.kernel_time_total - before_kernel
        device_time = fs.device.stats.busy_time - before_busy
        points.append(
            SplitPoint(
                frag_size=frag_size,
                commands_per_syscall=commands / syscalls,
                kernel_time_us=kernel / syscalls * 1e6,
                device_time_us=device_time / syscalls * 1e6,
                latency_us=latency / syscalls * 1e6,
            )
        )
    return SplittingResult(device=device, points=points)
