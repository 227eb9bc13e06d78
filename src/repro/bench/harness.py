"""Shared plumbing for the experiment modules."""

from __future__ import annotations

import copy
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterator, Optional, Tuple

from ..device import make_device
from ..device.base import StorageDevice
from ..errors import InvalidArgument
from ..faults import hooks as fault_hooks
from ..fs import make_filesystem
from ..fs.base import Filesystem
from ..obs import analysis as obs_analysis
from ..obs import hooks as obs_hooks


def fresh_fs(fs_type: str, device_kind: str) -> Tuple[Filesystem, StorageDevice]:
    """A fresh filesystem on a fresh device (every variant starts equal).

    Experiments whose cells all start from the same built file take it
    from a :class:`FixtureCache`, which builds it once per run and hands
    every cell an exact copy.
    """
    device = make_device(device_kind)
    fs = make_filesystem(fs_type, device)
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
class ObsWindow:
    """The telemetry of one measured cell: what the bench suite persists."""

    #: ``repro.obs`` registry dump for this window (None unless obs was enabled)
    metrics: Optional[Dict[str, Dict[str, object]]] = None
    #: latency-attribution breakdown over the same window
    #: (``repro.obs.analysis.Attribution.to_dict()``; None when disabled)
    attribution: Optional[Dict[str, object]] = None

    def fanout_summary(self) -> Dict[str, float]:
        """{count, mean, p95, max} of this window's split fan-out."""
        return obs_analysis.histogram_summary(self.metrics or {}, "block.split_fanout")


@contextmanager
def measured_variant() -> Iterator[ObsWindow]:
    """One cell's measurement window, metrics attached centrally.

    Wraps a cell's whole run (setup + defrag + measurement).  On exit
    the live registry is windowed against the entry snapshot and attached
    with its latency attribution, so no experiment can silently drop
    telemetry; with obs disabled this costs two attribute lookups.
    """
    obs = obs_hooks.current()
    since = obs.registry.snapshot() if obs.enabled else None
    window = ObsWindow()
    try:
        yield window
    finally:
        if obs.enabled:
            window.metrics = obs_analysis.delta_metrics(obs.registry, since)
            window.attribution = obs_analysis.attribute(window.metrics).to_dict()


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
