"""Figure 11: Filebench-fileserver grep cost on F2FS (Flash and Optane).

Populate/churn a fileserver directory (O_DIRECT, interleaved appends),
then measure the recursive-grep cost (s/GB; 32 KiB buffered sequential
reads, so readahead issues 128 KiB requests) for:

- **original** — fragmented file set,
- **conv** — full-file rewrite defragmentation (the paper's F2FS mimic),
- **fragpicker** — bypass plans (grep *is* a sequential read workload).

Also reported: defragmentation write traffic and the average fragments per
file before/after (the paper: 1395 -> 1.77 on Optane, 1068 -> 2.48 on
flash).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ...constants import GIB, MIB
from ...core import FragPicker
from ...device import make_device
from ...fs import make_filesystem
from ...tools import f2fs_defrag
from ...workloads.fileserver import FileServer, FileServerConfig, grep_directory
from ..harness import ObsWindow, measured_variant

#: the default file set (the bench suite's full run reads these too):
#: 60 files of ~2 MiB scale the paper's 3000-6000 x 8.4 MB
DEVICE, FILE_COUNT, MEAN_SIZE, SEED = "flash", 60, 2 * MIB, 5


@dataclass
class Fig11Cell:
    grep_cost: float            # s/GB
    defrag_write_mb: float
    avg_fragments: float
    #: windowed obs capture (metrics + attribution); None when obs is off
    obs: Optional[ObsWindow] = None


@dataclass
class Fig11Result:
    device: str
    fragments_before: float
    cells: Dict[str, Fig11Cell]

    def report(self) -> str:
        lines = [f"[f2fs on {self.device}] avg fragments before: {self.fragments_before:.0f}"]
        for name, cell in self.cells.items():
            lines.append(
                f"{name}: grep {cell.grep_cost:.2f} s/GB, defrag writes {cell.defrag_write_mb:.0f} MB, "
                f"avg frags {cell.avg_fragments:.2f}"
            )
        return "\n".join(lines)


def _setup(device_kind: str, file_count: int, mean_size: int, seed: int):
    device = make_device(device_kind, capacity=4 * GIB)
    fs = make_filesystem("f2fs", device)
    server = FileServer(
        fs,
        FileServerConfig(file_count=file_count, mean_file_size=mean_size,
                         churn_rounds=2, seed=seed),
    )
    now = server.populate(0.0)
    fs.drop_caches()
    return fs, server, now


def run(
    device: str = DEVICE,
    file_count: int = FILE_COUNT,
    mean_size: int = MEAN_SIZE,
    seed: int = SEED,
) -> Fig11Result:
    cells: Dict[str, Fig11Cell] = {}
    fragments_before = 0.0
    for variant in ("original", "conv", "fragpicker"):
        with measured_variant() as window:
            fs, server, now = _setup(device, file_count, mean_size, seed)
            if not fragments_before:
                fragments_before = server.average_fragments()
            write_mb = 0.0
            if variant == "conv":
                report = f2fs_defrag(fs).defragment(server.paths, now=now)
                now = report.finished_at
                write_mb = report.write_bytes / MIB
            elif variant == "fragpicker":
                picker = FragPicker(fs)
                report = picker.defragment(plans=picker.bypass_plans(server.paths), now=now)
                now = report.finished_at
                write_mb = report.write_bytes / MIB
            fs.drop_caches()
            now, grep = grep_directory(fs, server.config.directory, now)
            avg_fragments = server.average_fragments()
        cells[variant] = Fig11Cell(
            grep_cost=grep.cost_per_gb,
            defrag_write_mb=write_mb,
            avg_fragments=avg_fragments,
            obs=window if window.metrics is not None else None,
        )
    return Fig11Result(device=device, fragments_before=fragments_before, cells=cells)
