"""Periodic fragmentation sampling over virtual time.

Before/after scalars (`fragments_before`, `fragments_after`) hide *how*
a defragmenter gets there; this sampler turns layout state into curves
over the sim clock, so defrag progress shows up as a falling
extents-per-file line next to the workload's spans in the same Chrome
trace.

The simulator has no global tick, so sampling is activity-driven: the
sampler registers as a device batch listener and takes a sample whenever
the virtual clock crosses the next due time.  Each sample reads

- ``frag.extents_per_file`` — mean extent count over the tracked files,
- ``frag.max_extents``      — worst tracked file,
- ``frag.contiguity``       — mean of 1/extents per file (1.0 = every
  tracked file is a single extent, the defrag target),
- ``frag.free_runs``        — free-space runs (free-space fragmentation),
- ``frag.largest_free_mb``  — largest contiguous free run,

recording each into a :class:`~repro.stats.timeline.Series` and — when
the observability plane is enabled — mirroring the readings into registry
gauges and a ``frag.sample`` ring event.  Memory is bounded: past
``max_samples`` the series are decimated and the interval doubled.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..constants import MIB
from ..stats.timeline import Series
from . import hooks as obs_hooks

#: the event-ring track samples are emitted on
TRACK = "frag"

#: series names, in display order
SERIES_NAMES = (
    "frag.extents_per_file",
    "frag.max_extents",
    "frag.contiguity",
    "frag.free_runs",
    "frag.largest_free_mb",
)


class FragmentationSampler:
    """Samples layout/fragmentation state of one filesystem over sim time.

    Use around an experiment::

        sampler = FragmentationSampler(fs, interval=0.05, paths=files)
        with sampler:                       # attaches a device listener
            ... run workload / defrag ...
        curves = sampler.series             # name -> Series

    or drive it manually from an actor loop with ``sample(now)``.
    """

    def __init__(
        self,
        fs,
        interval: float = 0.05,
        paths: Optional[Sequence[str]] = None,
        max_samples: int = 4096,
    ) -> None:
        if interval <= 0:
            raise ValueError("sampler interval must be positive")
        self.fs = fs
        self.interval = interval
        self.paths: Optional[List[str]] = list(paths) if paths is not None else None
        self.max_samples = max_samples
        self.series: Dict[str, Series] = {name: Series(name) for name in SERIES_NAMES}
        self.samples_taken = 0
        self.obs = obs_hooks.current()
        self._next_due: Optional[float] = None
        #: is the device listener registered?
        self.attached = False

    # -- lifecycle -----------------------------------------------------

    def attach(self) -> "FragmentationSampler":
        """Register the device listener (a no-op while attached)."""
        if not self.attached:
            self.fs.device.add_listener(self._on_batch)
            self.attached = True
        return self

    def detach(self) -> None:
        """Unregister the device listener (a no-op while detached)."""
        if self.attached:
            self.fs.device.remove_listener(self._on_batch)
            self.attached = False

    def __enter__(self) -> "FragmentationSampler":
        return self.attach()

    def __exit__(self, *exc) -> None:
        self.detach()

    def _on_batch(self, op, ranges, start: float, finish: float) -> None:
        due = self._next_due
        if due is None or not finish < due:
            self.sample(finish)

    # -- sampling ------------------------------------------------------

    def _tracked_inodes(self) -> Iterable:
        if self.paths is None:
            return list(self.fs.inodes.values())
        return [self.fs.inode_of(p) for p in self.paths if self.fs.exists(p)]

    def sample(self, now: float) -> Dict[str, float]:
        """Read the filesystem and record one point on every series."""
        extent_counts = [
            max(1, inode.fragment_count())
            for inode in self._tracked_inodes()
            if inode.size > 0
        ]
        free = self.fs.free_space.stats()
        files = len(extent_counts)
        reading = {
            "frag.extents_per_file": sum(extent_counts) / files if files else 0.0,
            "frag.max_extents": float(max(extent_counts, default=0)),
            "frag.contiguity": (
                sum(1.0 / c for c in extent_counts) / files if files else 1.0
            ),
            "frag.free_runs": float(free.run_count),
            "frag.largest_free_mb": free.largest_run / MIB,
        }
        for name, value in reading.items():
            self.series[name].record(now, value)
        self.samples_taken += 1
        self._next_due = now + self.interval
        if self.obs.enabled:
            for name, value in reading.items():
                self.obs.registry.gauge(name).set(value)
            self.obs.event("frag.sample", now, track=TRACK, **reading)
        if len(self.series["frag.contiguity"]) > self.max_samples:
            # bound memory on long runs: halve resolution, double cadence
            for series in self.series.values():
                series.decimate()
            self.interval *= 2.0
        return reading

    # -- views ---------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        return {name: series.summary() for name, series in self.series.items()}

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": "repro.obs.fragtimeline/v1",
            "interval_s": self.interval,
            "samples": self.samples_taken,
            "series": {name: s.to_dict()["samples"] for name, s in self.series.items()},
        }
