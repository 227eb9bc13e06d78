"""The fault plane every layer consults — a mirror of :mod:`repro.obs.hooks`.

Each layer captures one reference at construction time (``self.faults``)
and guards every check with ``if self.faults.enabled:`` — with the default
:class:`NullFaultPlane` installed the hot path costs one attribute lookup
and a falsy branch, which is how the subsystem keeps the same zero-cost
guarantee ``repro.obs`` gives: with no plan installed, runs are
bit-identical to runs without :mod:`repro.faults` imported at all.

Install a plane around an experiment::

    from repro.faults import FaultPlan, hooks
    plan = FaultPlan(seed=7).io_error("fs.write", after_ops=3)
    with hooks.use(hooks.FaultPlane(plan)) as plane:
        fs, device = fresh_fs(...)   # layers built now pick it up
        plane.activate()             # setup traffic stays fault-free
        ...

The live :class:`FaultPlane` is in :mod:`repro.faults.plane`, with the
plan DSL it compiles; this module names it lazily, so a process that
never arms the plane never imports either.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, NamedTuple, Optional

from ..exports import lazy_exports

if TYPE_CHECKING:
    from .plan import FaultPlan
    from .plane import FaultPlane

#: characteristic stall used when a latency rule names no duration and the
#: site has no device model to consult (fs/block sites)
DEFAULT_LATENCY_SPIKE = 0.001

#: the block layer's one site (checked once per batch, before dispatch)
BLOCK_SITE = "block.submit"

#: the live plane, imported on first use
_EXPORTS = {"FaultPlane": "plane", "FaultPlaneStats": "plane"}
__getattr__, __dir__, _ = lazy_exports(__name__, _EXPORTS)


class FaultFire(NamedTuple):
    """One injection decision: rule N fires at a site."""

    rule_index: int
    kind: str
    site: str
    op: Optional[str]
    now: float
    #: for ``kind="latency"``: the stall, or None = caller's default
    latency: Optional[float] = None
    #: for ``kind="torn"``: surviving bytes (block-aligned prefix)
    torn_length: int = 0


class NullFaultPlane:
    """Disabled plane: the zero-cost default (mirror of ``obs.NULL``)."""

    enabled = False
    active = False

    def __deepcopy__(self, memo) -> "NullFaultPlane":
        # stateless singleton: a cloned filesystem keeps ``faults is NULL``
        return self

    def check(
        self,
        site: str,
        op: Optional[str] = None,
        offset: Optional[int] = None,
        length: Optional[int] = None,
        now: float = 0.0,
    ) -> None:
        return None

    def activate(self) -> None:
        pass

    def deactivate(self) -> None:
        pass


NULL = NullFaultPlane()
_current = NULL


def current():
    """The process-wide fault plane (null unless one is installed)."""
    return _current


def install(plane) -> None:
    global _current
    _current = plane


def arm(plan: FaultPlan, active: bool = True) -> FaultPlane:
    """Install (and return) a live plane for ``plan``."""
    from .plane import FaultPlane

    plane = FaultPlane(plan, active=active)
    install(plane)
    return plane


def disarm() -> None:
    install(NULL)


@contextmanager
def use(plane):
    """Scoped install; restores the previous plane on exit."""
    previous = current()
    install(plane)
    try:
        yield plane
    finally:
        install(previous)
