"""Shared plumbing for the experiment modules."""

from __future__ import annotations

import copy
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Iterator, Optional, Tuple

from ..device import make_device
from ..device.base import StorageDevice
from ..errors import InvalidArgument
from ..faults import hooks as fault_hooks
from ..fs import make_filesystem
from ..fs.base import Filesystem
from ..obs import analysis as obs_analysis
from ..obs import hooks as obs_hooks


def fresh_fs(fs_type: str, device_kind: str, **fs_kwargs) -> Tuple[Filesystem, StorageDevice]:
    """A fresh filesystem on a fresh device (every variant starts equal).

    Experiments whose cells all start from the same built file take it
    from a :class:`FixtureCache`, which builds it once per run and hands
    every cell an exact copy.
    """
    device = make_device(device_kind)
    fs = make_filesystem(fs_type, device, **fs_kwargs)
    return fs, device


#: a built starting point: the filesystem and the virtual time its build
#: finished at
Fixture = Tuple[Filesystem, float]


class FixtureCache:
    """Per-run store of built fixtures: build once, deep-copy per cell.

    An experiment's ``run()`` creates one and asks it for every cell's
    starting filesystem.  The first request for a key builds the fixture
    and stores it; every request returns a ``copy.deepcopy`` of the
    stored one, so each cell starts byte-identical to a fresh build and
    no cell sees another's writes.

    While an obs or fault plane is armed every request builds afresh:
    layers capture the planes at construction, and each cell's metrics
    window (and each fault rule's op counts) must contain the build's
    own syscalls, exactly as when every cell built its own file.
    """

    def __init__(self) -> None:
        self._stored: Dict[Hashable, Fixture] = {}

    def get(self, key: Hashable, build: Callable[[], Fixture]) -> Fixture:
        """``(fs, now)`` for one cell: a copy of ``key``'s fixture, built
        by ``build()`` on first use (and on every use while armed)."""
        if obs_hooks.current().enabled or fault_hooks.current().enabled:
            return build()
        stored = self._stored.get(key)
        if stored is None:
            stored = build()
            fs = stored[0]
            # every copy would carry its own duplicate of each observer
            if fs._monitors or fs.device._listeners:
                raise InvalidArgument(
                    f"fixture {key!r} has syscall monitors or device "
                    "listeners attached; attach them per cell instead"
                )
            self._stored[key] = stored
        fs, now = stored
        return copy.deepcopy(fs), now


@dataclass
class VariantResult:
    """One bar of a figure: a defrag variant's performance and cost."""

    name: str
    throughput_mbps: float = 0.0
    defrag_read_mb: float = 0.0
    defrag_write_mb: float = 0.0
    defrag_elapsed: float = 0.0
    fragments_after: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)
    #: ``repro.obs`` registry dump for this variant's measurement window
    #: (None unless obs was enabled)
    metrics: Optional[Dict[str, Dict[str, object]]] = None
    #: latency-attribution breakdown over the same window
    #: (``repro.obs.analysis.Attribution.to_dict()``; None when disabled)
    attribution: Optional[Dict[str, object]] = None
    #: provenance-forest summary (``ProvenanceForest.summary()``; None
    #: unless causal tracing was armed via ``Instrumentation(provenance=True)``)
    provenance: Optional[Dict[str, object]] = None

    def attach_metrics(self, since: Optional[Dict[str, object]] = None) -> "VariantResult":
        """Capture the active registry (windowed against ``since``) plus
        its latency attribution, if obs is enabled."""
        obs = obs_hooks.current()
        if not obs.enabled:
            return self
        self.metrics = obs_analysis.delta_metrics(obs.registry, since)
        self.attribution = obs_analysis.attribute(self.metrics).to_dict()
        if obs.provenance is not None:
            from ..obs.provenance import build_forest  # late: avoid cycles
            self.provenance = build_forest(obs.spans).summary()
        return self

    def attribution_table(self) -> str:
        if self.metrics is None:
            return "(no metrics attached)"
        return obs_analysis.attribute(self.metrics).table()

    def fanout_summary(self) -> Dict[str, float]:
        """{count, mean, p95, max} of this window's split fan-out."""
        return obs_analysis.histogram_summary(self.metrics or {}, "block.split_fanout")

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary (what ``BENCH_*.json`` persists per variant)."""
        doc: Dict[str, object] = {
            "throughput_mbps": self.throughput_mbps,
            "defrag_read_mb": self.defrag_read_mb,
            "defrag_write_mb": self.defrag_write_mb,
            "defrag_elapsed": self.defrag_elapsed,
            "fragments_after": self.fragments_after,
            "extra": dict(self.extra),
        }
        if self.metrics is not None:
            doc["split_fanout"] = self.fanout_summary()
        if self.attribution is not None:
            doc["attribution"] = self.attribution
        if self.provenance is not None:
            doc["provenance"] = self.provenance
        return doc


@contextmanager
def measured_variant(name: str) -> Iterator[VariantResult]:
    """One variant's measurement window, metrics attached centrally.

    Wraps a variant's whole run (setup + defrag + measurement).  On exit
    the live registry is windowed against the entry snapshot and attached,
    so no experiment can silently drop telemetry by forgetting
    ``attach_metrics()``; with obs disabled this costs two attribute
    lookups.
    """
    obs = obs_hooks.current()
    since = obs.registry.snapshot() if obs.enabled else None
    result = VariantResult(name=name)
    try:
        yield result
    finally:
        result.attach_metrics(since=since)


def metrics_snapshot() -> Optional[Dict[str, Dict[str, object]]]:
    """JSON-ready dump of the active obs registry (None when disabled)."""
    obs = obs_hooks.current()
    if not obs.enabled:
        return None
    return obs.registry.to_dict()


@dataclass
class Variant:
    """Named defrag strategy applied inside an experiment."""

    name: str
    kind: str  # "original" | "conventional" | "conventional-t" | "fragpicker" | "fragpicker-b"
    extent_threshold: Optional[int] = None
    hotness_criterion: float = 1.0


def print_header(title: str) -> None:
    bar = "=" * len(title)
    print(f"\n{bar}\n{title}\n{bar}")


def corun_until_background_done(foreground, background, start: float = 0.0):
    """Run ``foreground`` (an endless actor) until ``background`` finishes.

    Both arguments are actor factories (``fn(ctx) -> generator``).  Returns
    ``(foreground_ctx, background_ctx)`` — this is the Figure 2/10 pattern:
    a workload hammered while a defragmenter works in the background.
    """
    from ..sim.engine import run_concurrently  # late import: avoid cycles

    done = {"flag": False}

    def bg(ctx):
        for _ in background(ctx):
            yield
        done["flag"] = True

    def fg(ctx):
        iterator = foreground(ctx)
        while not done["flag"]:
            try:
                next(iterator)
            except StopIteration:
                break
            yield

    contexts = run_concurrently({"foreground": fg, "background": bg}, start=start)
    return contexts["foreground"], contexts["background"]
