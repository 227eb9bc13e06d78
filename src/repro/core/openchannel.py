"""Device-level (PBA) fragmentation — the paper's Section 6 future work.

Flash-internal operations (GC, out-of-place updates) can leave data that
is perfectly contiguous in LBA space scattered across few channels in
physical space, causing the same resource conflicts as LBA fragmentation.
``filefrag`` cannot see this; the paper proposes extending FragPicker with
open-channel SSD visibility.

This module implements that extension against the simulated flash FTL:

- :class:`OpenChannelInspector` exposes the logical-to-physical channel
  placement (what an open-channel / zoned interface would report).
- :func:`range_is_pba_conflicted` flags ranges whose pages concentrate on
  few channels (imbalance above a threshold).
- :class:`PbaAwareFragPicker` migrates a range when it is *either*
  LBA-fragmented or PBA-conflicted; rewriting restripes the pages
  round-robin across channels, restoring parallelism.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

from ..constants import BLOCK_SIZE
from ..device.flash import FlashSsd
from ..errors import InvalidArgument
from ..fs.base import Filesystem
from .fragpicker import FragPicker, FragPickerConfig
from .range_list import FileRange


class OpenChannelInspector:
    """Open-channel view of a flash device's physical placement."""

    def __init__(self, device: FlashSsd) -> None:
        if not isinstance(device, FlashSsd):
            raise InvalidArgument("open-channel inspection needs a flash SSD")
        self.device = device

    def channel_histogram(self, fs: Filesystem, path: str, file_range: FileRange) -> Dict[int, int]:
        """Pages per channel for the mapped blocks of a file range."""
        inode = fs.inode_of(path)
        histogram: Counter = Counter()
        for disk, length in inode.extent_map.disk_ranges(
            file_range.start, file_range.end - file_range.start
        ):
            first = disk // BLOCK_SIZE
            last = (disk + length - 1) // BLOCK_SIZE
            for lpn in range(first, last + 1):
                histogram[self.device.ftl.channel_of(lpn)] += 1
        return dict(histogram)

    def imbalance(self, fs: Filesystem, path: str, file_range: FileRange) -> float:
        """Max-channel load divided by the perfectly-striped load.

        1.0 means perfectly balanced; ``channels`` means everything sits
        on one channel.
        """
        histogram = self.channel_histogram(fs, path, file_range)
        total = sum(histogram.values())
        if total == 0:
            return 1.0
        ideal = total / self.device.params.channels
        return max(histogram.values()) / ideal


def range_is_pba_conflicted(
    inspector: OpenChannelInspector,
    fs: Filesystem,
    path: str,
    file_range: FileRange,
    threshold: float = 1.75,
) -> bool:
    """True when the range's physical placement loses ≥ ``threshold``-fold
    parallelism versus perfect striping."""
    return inspector.imbalance(fs, path, file_range) >= threshold


class PbaAwareFragPicker(FragPicker):
    """FragPicker extended with open-channel (PBA) fragmentation checks."""

    def __init__(
        self,
        fs: Filesystem,
        config: FragPickerConfig = FragPickerConfig(),
    ) -> None:
        super().__init__(fs, config)
        self.inspector = OpenChannelInspector(fs.device)

    def _needs_migration(self, path: str, file_range: FileRange) -> bool:
        """Migrate when LBA-fragmented *or* physically conflicted."""
        return super()._needs_migration(path, file_range) or range_is_pba_conflicted(
            self.inspector, self.fs, path, file_range
        )
