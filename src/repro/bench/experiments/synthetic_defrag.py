"""Figures 8 and 9: the synthetic-workload defragmentation comparison.

For each (filesystem, device) the paper builds a file of repeating
32 x 4 KiB + 1 x 128 KiB units (dummy writes interleaved), then measures
sequential/stride reads and updates (O_DIRECT, 128 KiB requests, 288 KiB
stride) under five treatments:

- **Original** — no defragmentation,
- **Conv.** — the filesystem's conventional tool (full-file migration),
- **Conv.-T** — btrfs.defragment with the 128 KiB extent threshold
  (Figure 8c only),
- **FragPicker** — analysis run of the same workload, then migration,
- **FragPicker-B** — the bypass option (sequential plans, no analysis).

The per-variant defragmentation write traffic is recorded per I/O pattern
class (sequential vs stride), matching the tables beneath the figures.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ...constants import KIB, MIB
from ...core import FragPicker, FragPickerConfig
from ...core.report import DefragReport
from ...errors import InvalidArgument
from ...tools import btrfs_defragment, make_conventional
from ...types import Record
from ...workloads.synthetic import (
    make_paper_synthetic_file,
    sequential_read,
    sequential_update,
    stride_read,
    stride_update,
)
from ..harness import FixtureCache, ObsWindow, fresh_fs, measured_variant

PATTERNS: Dict[str, Callable] = {
    "seq_read": sequential_read,
    "stride_read": stride_read,
    "seq_update": sequential_update,
    "stride_update": stride_update,
}

VARIANTS = ("original", "conv", "conv_t", "fragpicker", "fragpicker_b")

#: the variants whose tool never reads the I/O pattern: their
#: defragmented volume is built once per grid and copied into each cell
PATTERN_FREE = ("conv", "conv_t", "fragpicker_b")

#: the paper's file (1 GiB on Optane, 400 MB on flash), scaled down
FILE_SIZE = 33 * MIB


class SyntheticCell(Record):
    __slots__ = _fields = ("throughput_mbps", "defrag_write_mb", "defrag_read_mb",
                           "defrag_elapsed", "fragments_after", "obs")

    def __init__(self, throughput_mbps: float, defrag_write_mb: float = 0.0,
                 defrag_read_mb: float = 0.0, defrag_elapsed: float = 0.0,
                 fragments_after: int = 0, obs: Optional[ObsWindow] = None) -> None:
        self.throughput_mbps = throughput_mbps
        self.defrag_write_mb = defrag_write_mb
        self.defrag_read_mb = defrag_read_mb
        self.defrag_elapsed = defrag_elapsed
        self.fragments_after = fragments_after
        #: windowed obs capture for this cell (metrics + latency attribution);
        #: None unless the observability plane was enabled during the run
        self.obs = obs


class SyntheticResult(Record):
    __slots__ = _fields = ("fs_type", "device", "file_size", "cells")

    def __init__(self, fs_type: str, device: str, file_size: int,
                 cells: Optional[Dict[str, Dict[str, SyntheticCell]]] = None) -> None:
        self.fs_type = fs_type
        self.device = device
        self.file_size = file_size
        #: cells[variant][pattern]
        self.cells = cells if cells is not None else {}

    def cell(self, variant: str, pattern: str) -> SyntheticCell:
        return self.cells[variant][pattern]

    @property
    def gains(self) -> Dict[str, float]:
        """FragPicker's throughput over the original's, per pattern."""
        fp, orig = self.cells["fragpicker"], self.cells["original"]
        return {p: fp[p].throughput_mbps / orig[p].throughput_mbps for p in fp}

    @property
    def conv_update_change(self) -> float:
        """MB/s the conventional tool moves sequential updates, either way."""
        conv, orig = self.cells["conv"], self.cells["original"]
        return abs(conv["seq_update"].throughput_mbps - orig["seq_update"].throughput_mbps)

    def report(self) -> str:
        from ...stats.tables import format_table

        patterns = list(next(iter(self.cells.values())).keys())
        headers = ["variant"] + [f"{p} MB/s" for p in patterns] + ["seq writes MB", "stride writes MB"]
        rows = []
        for variant, per_pattern in self.cells.items():
            row: List[object] = [variant]
            row += [per_pattern[p].throughput_mbps for p in patterns]
            seq_w = per_pattern.get("seq_read") or per_pattern.get("seq_update")
            str_w = per_pattern.get("stride_read") or per_pattern.get("stride_update")
            row += [seq_w.defrag_write_mb if seq_w else 0.0,
                    str_w.defrag_write_mb if str_w else 0.0]
            rows.append(row)
        title = f"[{self.fs_type} on {self.device}, {self.file_size // MIB} MiB file]"
        return title + "\n" + format_table(headers, rows)


def _defragment(fs, variant: str, path: str, now: float) -> DefragReport:
    """Run one pattern-free variant's tool over ``path``."""
    if variant == "conv":
        return make_conventional(fs).defragment([path], now=now)
    if variant == "conv_t":
        return btrfs_defragment(fs, extent_threshold=128 * KIB).defragment([path], now=now)
    if variant == "fragpicker_b":
        return FragPicker(fs).defragment_bypass([path], now=now)
    raise InvalidArgument(f"unknown variant {variant!r}")


def _analyse_and_defragment(fs, path: str, pattern_fn, now: float,
                            hotness: float) -> DefragReport:
    """FragPicker: an analysis run of the same workload first (Section 5.1)."""
    picker = FragPicker(fs, FragPickerConfig(hotness_criterion=hotness))
    with picker.monitor(apps={"bench"}) as monitor:
        now, _ = pattern_fn(fs, path, now=now)
    return picker.defragment(monitor.records, paths=[path], now=now)


def run(
    fs_type: str,
    device: str,
    file_size: int = FILE_SIZE,
    variants: Optional[Tuple[str, ...]] = None,
    patterns: Tuple[str, ...] = tuple(PATTERNS),
    hotness: float = 1.0,
) -> SyntheticResult:
    """Run the full grid; every cell starts from its own copy of a
    cached state (see :class:`FixtureCache`).

    The freshly built file is one cached state.  The variants that never
    read the pattern (:data:`PATTERN_FREE`) each add one more: their
    tool runs once on a copy of the built file, and every pattern's cell
    starts from a copy of the defragmented volume, with the tool's
    report stored beside it.  Original and FragPicker start from the
    built file; FragPicker runs its analysis and migration per cell,
    because its analysis traces the cell's own pattern.

    ``variants=None`` runs the paper's set for ``fs_type``:
    Btrfs adds Conv.-T, the ``-t`` extent-threshold option only it has.
    """
    if variants is None:
        variants = ("original", "conv", "fragpicker", "fragpicker_b")
        if fs_type == "btrfs":
            variants = ("original", "conv", "conv_t", "fragpicker", "fragpicker_b")
    result = SyntheticResult(fs_type=fs_type, device=device, file_size=file_size)
    fixtures = FixtureCache()
    key = (fs_type, device, file_size)

    def build():
        fs, _ = fresh_fs(fs_type, device)
        return fs, make_paper_synthetic_file(fs, "/target", file_size)

    def defragmented(variant: str):
        def build_defragmented():
            fs, now = fixtures.get(key, build)
            report = _defragment(fs, variant, "/target", now)
            return fs, report.finished_at, report
        return build_defragmented

    for variant in variants:
        result.cells[variant] = {}
        for pattern in patterns:
            pattern_fn = PATTERNS[pattern]
            with measured_variant() as window:
                if variant == "original":
                    fs, now = fixtures.get(key, build)
                    report = None
                elif variant == "fragpicker":
                    fs, now = fixtures.get(key, build)
                    report = _analyse_and_defragment(fs, "/target", pattern_fn, now, hotness)
                    now = report.finished_at
                else:
                    fs, now, report = fixtures.get(key + (variant,), defragmented(variant))
                now, mbps = pattern_fn(fs, "/target", now=now)
            cell = SyntheticCell(
                throughput_mbps=mbps,
                obs=window if window.metrics is not None else None,
            )
            if report is not None:
                cell.defrag_write_mb = report.write_bytes / MIB
                cell.defrag_read_mb = report.read_bytes / MIB
                cell.defrag_elapsed = report.elapsed
                cell.fragments_after = sum(report.fragments_after.values())
            result.cells[variant][pattern] = cell
        fixtures.release(key + (variant,))
    return result
