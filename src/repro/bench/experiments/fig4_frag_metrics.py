"""Figure 4 + Table 1: performance vs frag_size / frag_distance per device.

Recreates the paper's Section 3 sweeps:

- **frag_size sweep** — fragment sizes from 4 KiB past the 128 KiB request
  size, frag_distance fixed at 1024 KiB; sequential 128 KiB reads.
- **frag_distance sweep** — distances from 4 KiB to 4 MiB with frag_size
  fixed at 4 KiB.

From the sweep samples it computes Table 1: the correlation coefficient
(CC) and normalized linear regression slope (NLRS) between each metric and
performance (normalized to the lowest sample), with the frag_size
statistics split at 128 KiB.  Section 3.3's update-mode variant is also
available (``io_kind="update"``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ...constants import KIB, MIB
from ...stats.correlation import correlation_coefficient, nlrs
from ...stats.tables import format_table
from ...workloads.synthetic import (
    FragmentSpec,
    make_fragmented_file,
    sequential_read,
    sequential_update,
)
from ..harness import fresh_fs

DEVICES = ("hdd", "microsd", "flash", "optane")
#: the seekless devices
MODERN = ("microsd", "flash", "optane")

FRAG_SIZES = [4 * KIB, 8 * KIB, 16 * KIB, 32 * KIB, 64 * KIB, 96 * KIB,
              128 * KIB, 192 * KIB, 256 * KIB, 384 * KIB, 512 * KIB]
FRAG_DISTANCES = [4 * KIB, 64 * KIB, 512 * KIB, 2 * MIB, 8 * MIB, 16 * MIB]

SIZE_SWEEP_DISTANCE = 1024 * KIB   # the paper fixes distance at 1024 KiB
DISTANCE_SWEEP_FRAG = 4 * KIB      # and frag size at 4 KiB


@dataclass
class DeviceSweep:
    device: str
    #: frag_size -> MB/s
    size_curve: Dict[int, float] = field(default_factory=dict)
    #: frag_distance -> MB/s
    distance_curve: Dict[int, float] = field(default_factory=dict)

    # -- Table 1 statistics -------------------------------------------------

    def _split(self) -> Tuple[List[int], List[float], List[int], List[float]]:
        xs_lo, ys_lo, xs_hi, ys_hi = [], [], [], []
        for size, perf in sorted(self.size_curve.items()):
            if size <= 128 * KIB:
                xs_lo.append(size // KIB)
                ys_lo.append(perf)
            if size >= 128 * KIB:
                xs_hi.append(size // KIB)
                ys_hi.append(perf)
        return xs_lo, ys_lo, xs_hi, ys_hi

    def table1_row(self) -> Dict[str, float]:
        xs_lo, ys_lo, xs_hi, ys_hi = self._split()
        all_perf = list(self.size_curve.values()) + list(self.distance_curve.values())
        lo = min(all_perf)
        norm = lambda ys: [y / lo for y in ys]
        xd = [d // KIB for d in sorted(self.distance_curve)]
        yd = [self.distance_curve[d] for d in sorted(self.distance_curve)]
        return {
            "cc_size_before": correlation_coefficient(xs_lo, norm(ys_lo)),
            "cc_size_after": correlation_coefficient(xs_hi, norm(ys_hi)),
            "nlrs_size_before": nlrs(xs_lo, norm(ys_lo)),
            "nlrs_size_after": nlrs(xs_hi, norm(ys_hi)),
            "cc_distance": correlation_coefficient(xd, norm(yd)),
            "nlrs_distance": nlrs(xd, norm(yd)),
        }

    @property
    def distance_slope(self) -> float:
        return abs(self.table1_row()["nlrs_distance"])


@dataclass
class Fig4Result:
    io_kind: str
    sweeps: Dict[str, DeviceSweep]

    @property
    def modern(self) -> Dict[str, DeviceSweep]:
        return {d: s for d, s in self.sweeps.items() if d in MODERN}

    def table1(self) -> str:
        headers = ["Device", "CC size <128K", "CC size >128K",
                   "NLRS size <128K", "NLRS size >128K", "CC dist", "NLRS dist"]
        rows = []
        for device, sweep in self.sweeps.items():
            row = sweep.table1_row()
            rows.append([
                device,
                row["cc_size_before"], row["cc_size_after"],
                row["nlrs_size_before"], row["nlrs_size_after"],
                row["cc_distance"], row["nlrs_distance"],
            ])
        return format_table(headers, rows)

    def figure4(self) -> str:
        lines = []
        for device, sweep in self.sweeps.items():
            lines.append(f"-- {device}: seq {self.io_kind} MB/s --")
            lines.append("  frag_size:  " + "  ".join(
                f"{s // KIB}K={sweep.size_curve[s]:.1f}" for s in sorted(sweep.size_curve)))
            lines.append("  frag_dist:  " + "  ".join(
                f"{d // KIB}K={sweep.distance_curve[d]:.1f}" for d in sorted(sweep.distance_curve)))
        return "\n".join(lines)

    def report(self) -> str:
        """Figure 4, then Table 1."""
        return self.figure4() + "\n\n" + self.table1()


def _measure_point(device: str, spec: FragmentSpec, io_kind: str, file_size: int) -> float:
    fs, _ = fresh_fs("ext4", device)
    now = make_fragmented_file(fs, "/sweep", file_size, spec, fallocate_dummy=True)
    runner = sequential_read if io_kind == "read" else sequential_update
    _, mbps = runner(fs, "/sweep", now=now)
    return mbps


def run(
    io_kind: str = "read",
    devices: Tuple[str, ...] = DEVICES,
    file_size: int = 16 * MIB,
    distance_file_size: int = 4 * MIB,
    frag_sizes: List[int] = None,
    frag_distances: List[int] = None,
) -> Fig4Result:
    """Run both sweeps on every device; returns curves + Table 1 stats.

    The distance sweep uses a smaller file so large distances keep the
    total span within device capacity.
    """
    frag_sizes = frag_sizes or FRAG_SIZES
    frag_distances = frag_distances or FRAG_DISTANCES
    sweeps: Dict[str, DeviceSweep] = {}
    for device in devices:
        sweep = DeviceSweep(device)
        for frag_size in frag_sizes:
            spec = FragmentSpec(frag_size, SIZE_SWEEP_DISTANCE)
            sweep.size_curve[frag_size] = _measure_point(device, spec, io_kind, file_size)
        for distance in frag_distances:
            spec = FragmentSpec(DISTANCE_SWEEP_FRAG, distance)
            sweep.distance_curve[distance] = _measure_point(
                device, spec, io_kind, distance_file_size
            )
        sweeps[device] = sweep
    return Fig4Result(io_kind=io_kind, sweeps=sweeps)
