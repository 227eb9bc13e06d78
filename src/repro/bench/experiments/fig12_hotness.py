"""Figure 12: the hotness-criterion sweep under uniform vs zipfian reads.

A fragmented synthetic file is read with 128 KiB O_DIRECT requests whose
offsets follow either a uniform or a zipfian distribution.  FragPicker
analyses that trace and migrates the top-x% of hot data for x from 10% to
100%.  Reported per point: post-defrag throughput of the same access
stream and the write amount.

Paper shape: uniform -> performance and writes both rise with the
criterion; zipfian -> performance is flat (the analysis already caught the
hot set) and the write amount is tiny.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ...constants import MIB, READAHEAD_SIZE
from ...core import FragPicker, FragPickerConfig
from ...workloads.distributions import ZipfianKeys
from ...workloads.synthetic import make_paper_synthetic_file
from ..harness import FixtureCache, fresh_fs

CRITERIA = [0.1, 0.25, 0.5, 0.75, 1.0]


@dataclass
class HotnessPoint:
    criterion: float
    throughput_mbps: float
    write_mb: float


@dataclass
class Fig12Result:
    #: distribution -> sweep points
    sweeps: Dict[str, List[HotnessPoint]]
    original_mbps: Dict[str, float]

    @property
    def ratios(self) -> Dict[str, float]:
        """Throughput at the smallest criterion over that at the largest."""
        return {d: p[0].throughput_mbps / p[-1].throughput_mbps for d, p in self.sweeps.items()}

    @property
    def ratio_gap(self) -> float:
        return self.ratios["zipfian"] - self.ratios["uniform"]

    def report(self) -> str:
        lines = []
        for dist, points in self.sweeps.items():
            lines.append(f"-- {dist} (original {self.original_mbps[dist]:.0f} MB/s) --")
            for p in points:
                lines.append(
                    f"  top {p.criterion * 100:3.0f}%: {p.throughput_mbps:7.1f} MB/s, "
                    f"writes {p.write_mb:6.1f} MB"
                )
        return "\n".join(lines)


def _offsets(distribution: str, file_size: int, count: int, seed: int) -> List[int]:
    slots = file_size // READAHEAD_SIZE
    if distribution == "uniform":
        rng = random.Random(seed)
        return [rng.randrange(slots) * READAHEAD_SIZE for _ in range(count)]
    zipf = ZipfianKeys(slots, seed=seed)
    return [zipf.next() * READAHEAD_SIZE for _ in range(count)]


def _read_stream(fs, path: str, offsets: List[int], now: float) -> Tuple[float, float]:
    handle = fs.open(path, o_direct=True, app="bench")
    start = now
    for offset in offsets:
        now = fs.read(handle, offset, READAHEAD_SIZE, now=now).finish_time
    mbps = len(offsets) * READAHEAD_SIZE / (now - start) / 1e6
    return now, mbps


def run(
    file_size: int = 66 * MIB,
    ops: int = 1_500,
    criteria: List[float] = None,
    seed: int = 9,
) -> Fig12Result:
    """Sweep the criteria over each distribution's read stream.

    Only the hotness criterion differs between a distribution's points,
    so its traced state is built once (see :class:`FixtureCache`): a
    copy of the built file runs the base read stream and the monitored
    analysis stream, and the base MB/s and the monitor's records are
    stored beside the traced volume.  Each point then defragments its
    own copy of that volume with its criterion and measures the stream.
    """
    criteria = criteria or CRITERIA
    sweeps: Dict[str, List[HotnessPoint]] = {}
    original: Dict[str, float] = {}
    fixtures = FixtureCache()
    key = ("ext4", "optane", file_size)

    def build():
        fs, _ = fresh_fs("ext4", "optane")
        return fs, make_paper_synthetic_file(fs, "/target", file_size)

    def traced(offsets: List[int]):
        def build_traced():
            fs, now = fixtures.get(key, build)
            now, base_mbps = _read_stream(fs, "/target", offsets, now)
            with FragPicker(fs).monitor(apps={"bench"}) as monitor:
                now, _ = _read_stream(fs, "/target", offsets, now)
            return fs, now, base_mbps, tuple(monitor.records)
        return build_traced

    for distribution in ("uniform", "zipfian"):
        offsets = _offsets(distribution, file_size, ops, seed)
        points: List[HotnessPoint] = []
        for criterion in criteria:
            fs, now, base_mbps, records = fixtures.get(key + (distribution,), traced(offsets))
            original.setdefault(distribution, base_mbps)
            picker = FragPicker(fs, FragPickerConfig(hotness_criterion=criterion))
            report = picker.defragment(records, paths=["/target"], now=now)
            now, mbps = _read_stream(fs, "/target", offsets, report.finished_at)
            points.append(
                HotnessPoint(criterion=criterion, throughput_mbps=mbps,
                             write_mb=report.write_bytes / MIB)
            )
        sweeps[distribution] = points
        fixtures.release(key + (distribution,))
    return Fig12Result(sweeps=sweeps, original_mbps=original)
