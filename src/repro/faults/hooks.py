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

The plane answers :meth:`FaultPlane.check` with a :class:`FaultFire` (or
``None``); *enacting* the fault — raising, stalling, tearing — is the
calling layer's job, because only the layer knows its own semantics.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..constants import block_align_down
from ..obs import hooks as obs_hooks
from .plan import FaultPlan, FaultRule

#: characteristic stall used when a latency rule names no duration and the
#: site has no device model to consult (fs/block sites)
DEFAULT_LATENCY_SPIKE = 0.001


@dataclass(frozen=True)
class FaultFire:
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


@dataclass
class _RuleState:
    """Live per-rule bookkeeping inside a plane."""

    rule: FaultRule
    rng: Optional[random.Random]
    matched: int = 0
    fired: int = 0


@dataclass
class FaultPlaneStats:
    """What a plane injected, for survival reports and tests."""

    fires: List[FaultFire] = field(default_factory=list)
    by_site_kind: Dict[str, int] = field(default_factory=dict)

    def record(self, fire: FaultFire) -> None:
        self.fires.append(fire)
        key = f"{fire.site}.{fire.kind}"
        self.by_site_kind[key] = self.by_site_kind.get(key, 0) + 1

    @property
    def total(self) -> int:
        return len(self.fires)


class FaultPlane:
    """Live fault plane: a compiled :class:`FaultPlan` plus fire state.

    A plane starts **inactive** so harnesses can build scenarios (which
    issue plenty of syscalls) without burning trigger counters; call
    :meth:`activate` right before the run under test.
    """

    enabled = True

    def __init__(self, plan: Optional[FaultPlan] = None, active: bool = False) -> None:
        self.plan = plan if plan is not None else FaultPlan()
        self.active = active
        self.stats = FaultPlaneStats()
        #: every check seen while active, per full site name — the crash
        #: harness reads this to enumerate injection points
        self.counts: Dict[str, int] = {}
        self._rules: List[_RuleState] = []
        for index, rule in enumerate(self.plan.rules):
            rng = None
            if rule.probability is not None:
                # dedicated stream per rule: draws never interleave across
                # rules, so plans compose without perturbing each other
                rng = random.Random(self.plan.seed * 1_000_003 + index)
            self._rules.append(_RuleState(rule, rng))

    # -- lifecycle -----------------------------------------------------

    def activate(self) -> None:
        self.active = True

    def deactivate(self) -> None:
        self.active = False

    # -- the one query every layer makes -------------------------------

    def check(
        self,
        site: str,
        op: Optional[str] = None,
        offset: Optional[int] = None,
        length: Optional[int] = None,
        now: float = 0.0,
    ) -> Optional[FaultFire]:
        """Should a fault fire for this op?  First matching rule wins."""
        if not self.active:
            return None
        self.counts[site] = self.counts.get(site, 0) + 1
        for index, state in enumerate(self._rules):
            rule = state.rule
            if rule.max_fires and state.fired >= rule.max_fires:
                continue
            if not site.startswith(rule.site):
                continue
            if rule.op is not None and rule.op != op:
                continue
            if rule.lba is not None:
                if offset is None:
                    continue
                lo, hi = rule.lba
                end = offset + (length or 0)
                if end <= lo or offset >= hi:
                    continue
            if rule.at_time is not None and now < rule.at_time:
                continue
            state.matched += 1
            if rule.after_ops is not None and state.matched != rule.after_ops:
                continue
            if state.rng is not None and state.rng.random() >= rule.probability:
                continue
            state.fired += 1
            torn = 0
            if rule.kind == "torn" and length:
                torn = block_align_down(int(length * rule.torn_fraction))
                torn = max(0, min(torn, length))
            fire = FaultFire(
                rule_index=index,
                kind=rule.kind,
                site=site,
                op=op,
                now=now,
                latency=rule.latency,
                torn_length=torn,
            )
            self.stats.record(fire)
            obs = obs_hooks.current()
            if obs.enabled:
                obs.fault_injected(site, rule.kind)
                obs.event("fault.injected", now, site=site, kind=rule.kind, op=op)
            return fire
        return None

    def ops_seen(self, prefix: str) -> int:
        """Checks observed (while active) at sites under ``prefix``."""
        return sum(n for site, n in self.counts.items() if site.startswith(prefix))


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
