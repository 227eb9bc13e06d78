"""Ablation E13: what each FragPicker design choice contributes.

Runs the stride-read synthetic scenario with individual features knocked
out:

- ``full``        — FragPicker as designed,
- ``no_merge``    — Algorithm 1 disabled (raw per-I/O ranges),
- ``no_check``    — fragmentation checking disabled (migrate every range),
- ``no_readahead``— readahead imitation disabled (matters for buffered
  sequential workloads: analysis under-sizes the ranges).

Each variant reports the post-defrag throughput and the migration write
traffic; the design claim is that the checks cut writes without hurting
throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ...constants import MIB
from ...core import FragPicker, FragPickerConfig
from ...stats.tables import format_table
from ...workloads.synthetic import make_paper_synthetic_file, stride_read, sequential_read
from ..harness import FixtureCache, fresh_fs

CONFIGS: Dict[str, FragPickerConfig] = {
    "full": FragPickerConfig(),
    "no_merge": FragPickerConfig(merge_overlaps=False),
    "no_check": FragPickerConfig(check_fragmentation=False),
    "no_readahead": FragPickerConfig(imitate_readahead=False),
}


@dataclass
class PhaseCell:
    throughput_mbps: float
    write_mb: float
    elapsed: float


@dataclass
class PhasesResult:
    cells: Dict[str, PhaseCell]
    original_mbps: float

    def report(self) -> str:
        headers = ["variant", "MB/s", "writes MB", "defrag s"]
        rows = [[name, c.throughput_mbps, c.write_mb, c.elapsed]
                for name, c in self.cells.items()]
        return (f"original: {self.original_mbps:.1f} MB/s\n"
                + format_table(headers, rows))


def run(
    fs_type: str = "ext4",
    device: str = "optane",
    file_size: int = 33 * MIB,
    pattern: str = "stride_read",
) -> PhasesResult:
    pattern_fn = stride_read if pattern == "stride_read" else sequential_read
    original_mbps = 0.0
    cells: Dict[str, PhaseCell] = {}
    # every variant starts from its own copy of one built file
    fixtures = FixtureCache()

    def build():
        fs, _ = fresh_fs(fs_type, device)
        return fs, make_paper_synthetic_file(fs, "/t", file_size)

    for name, config in CONFIGS.items():
        fs, now = fixtures.get((fs_type, device, file_size), build)
        now, base = pattern_fn(fs, "/t", now=now)
        original_mbps = original_mbps or base
        # buffered trace for the readahead-imitation knob to matter
        o_direct = name != "no_readahead"
        picker = FragPicker(fs, config)
        with picker.monitor(apps={"bench"}) as monitor:
            now, _ = pattern_fn(fs, "/t", now=now, o_direct=o_direct)
        report = picker.defragment(monitor.records, paths=["/t"], now=now)
        now, mbps = pattern_fn(fs, "/t", now=report.finished_at)
        cells[name] = PhaseCell(
            throughput_mbps=mbps,
            write_mb=report.write_bytes / MIB,
            elapsed=report.elapsed,
        )
    return PhasesResult(cells=cells, original_mbps=original_mbps)
