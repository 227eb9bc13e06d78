"""The live fault plane: a compiled :class:`~repro.faults.plan.FaultPlan`
plus its fire state.

:mod:`repro.faults.hooks` installs it and holds the null default; this
module and the plan DSL load only where a plane is armed.

The plane answers :meth:`FaultPlane.check` with a
:class:`~repro.faults.hooks.FaultFire` (or ``None``); *enacting* the
fault — raising, stalling, tearing — is the calling layer's job, because
only the layer knows its own semantics.  A device checks a whole command
batch with one :meth:`FaultPlane.scan`, which makes the same per-command
checks and stops at the first fire; both go through the one matcher,
:meth:`FaultPlane._match`, which takes a batch's op and its ``(offset,
length)`` ranges in one call.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..constants import block_align_down
from ..obs import hooks as obs_hooks
from ..types import Record
from .hooks import FaultFire
from .plan import FaultPlan, FaultRule


class _RuleState(Record):
    """Live per-rule bookkeeping inside a plane (slotted: the matcher
    updates ``matched`` once per command it checks)."""

    __slots__ = _fields = ("rule", "rng", "matched", "fired")

    def __init__(self, rule: FaultRule, rng: Optional[random.Random],
                 matched: int = 0, fired: int = 0) -> None:
        self.rule = rule
        self.rng = rng
        self.matched = matched
        self.fired = fired


class FaultPlaneStats(Record):
    """What a plane injected, for survival reports and tests."""

    __slots__ = _fields = ("fires", "by_site_kind")

    def __init__(self, fires: Optional[List[FaultFire]] = None,
                 by_site_kind: Optional[Dict[str, int]] = None) -> None:
        self.fires = fires if fires is not None else []
        self.by_site_kind = by_site_kind if by_site_kind is not None else {}

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
        #: the plan compiled per site, filled on a site's first query:
        #: one local tuple per rule whose site prefix covers that site, in
        #: rule order (see :meth:`_candidates`)
        self._by_site: Dict[str, Tuple[tuple, ...]] = {}

    # -- lifecycle -----------------------------------------------------

    def activate(self) -> None:
        self.active = True

    def deactivate(self) -> None:
        self.active = False

    # -- the queries the layers make -----------------------------------

    def _candidates(self, site: str) -> Tuple[tuple, ...]:
        """The rules whose site prefix covers ``site``, in rule order,
        compiled on the site's first query.

        Each rule becomes one local tuple ``(index, state, op, at_time,
        max_fires, lo, hi, after_ops, rng, probability)`` (``lo``/``hi``
        None without an ``lba`` filter), so :meth:`_match` reads its
        filters without an attribute lookup.
        """
        candidates = self._by_site.get(site)
        if candidates is None:
            compiled = []
            for index, state in enumerate(self._rules):
                rule = state.rule
                if not site.startswith(rule.site):
                    continue
                lo, hi = rule.lba if rule.lba is not None else (None, None)
                compiled.append((
                    index, state, rule.op, rule.at_time, rule.max_fires,
                    lo, hi, rule.after_ops, state.rng, rule.probability,
                ))
            candidates = self._by_site[site] = tuple(compiled)
        return candidates

    def covers(self, site: str) -> bool:
        """Whether any rule's site prefix covers ``site`` (a check there
        can ever fire)."""
        return bool(self._candidates(site))

    def _fire(
        self, index: int, state: _RuleState, site: str, op: Optional[str],
        length: Optional[int], now: float,
    ) -> FaultFire:
        """Count rule ``index`` as fired and describe the fire."""
        state.fired += 1
        rule = state.rule
        torn = 0
        if rule.kind == "torn" and length:
            torn = block_align_down(int(length * rule.torn_fraction))
            torn = max(0, min(torn, length))
        return FaultFire(
            rule_index=index,
            kind=rule.kind,
            site=site,
            op=op,
            now=now,
            latency=rule.latency,
            torn_length=torn,
        )

    def _match(
        self,
        site: str,
        candidates: Tuple[tuple, ...],
        op: Optional[str],
        ranges: Sequence[Tuple[Optional[int], Optional[int]]],
        start: int,
        now: float,
    ) -> Tuple[int, Optional[FaultFire]]:
        """Match ``ranges[start:]`` in order, each against the rules in
        order (first matching rule wins), and stop at the first fire.

        One check per range: it updates the per-rule ``matched``/``fired``
        counters and draws from the rules' RNG streams.  Returns
        ``(index, fire)`` for the range that fires, or ``(len(ranges),
        None)``; does not :meth:`commit` the fire.
        """
        for index, (offset, length) in enumerate(
            ranges[start:] if start else ranges, start
        ):
            for (rule_index, state, rule_op, at_time, max_fires,
                 lo, hi, after_ops, rng, probability) in candidates:
                if max_fires and state.fired >= max_fires:
                    continue
                if rule_op is not None and rule_op != op:
                    continue
                if lo is not None:
                    if offset is None:
                        continue
                    if offset + (length or 0) <= lo or offset >= hi:
                        continue
                if at_time is not None and now < at_time:
                    continue
                state.matched += 1
                if after_ops is not None and state.matched != after_ops:
                    continue
                if rng is not None and rng.random() >= probability:
                    continue
                return index, self._fire(rule_index, state, site, op, length, now)
        return len(ranges), None

    def commit(self, fire: FaultFire) -> None:
        """Record a fire in :attr:`stats` and the armed obs plane."""
        self.stats.record(fire)
        obs = obs_hooks.current()
        if obs.enabled:
            obs.fault_injected(fire.site, fire.kind)
            obs.event("fault.injected", fire.now, site=fire.site, kind=fire.kind, op=fire.op)

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
        candidates = self._by_site.get(site)
        if candidates is None:
            candidates = self._candidates(site)
        if not candidates:
            return None
        fire = self._match(site, candidates, op, ((offset, length),), 0, now)[1]
        if fire is not None:
            self.commit(fire)
        return fire

    def scan(
        self, site: str, op: str, ranges: Sequence[Tuple[int, int]],
        start: int, now: float,
    ) -> Tuple[int, Optional[FaultFire]]:
        """Check a batch's ``(offset, length)`` commands, all of ``op``,
        from ``ranges[start]`` on, in order.

        Makes exactly the checks one :meth:`check` per command would
        make, so fires, :attr:`counts`, per-rule ``matched``/``fired``
        and every RNG stream end up as they would, and stops at the first
        fire.  Returns ``(index, fire)`` for that command, or
        ``(len(ranges), None)`` when none fires.  The fire is *pending*:
        the caller enacts it and calls :meth:`commit` when its own work
        reaches ``ranges[index]``, then scans on from ``index + 1``.

        A caller that raises at an earlier command (an FTL ``DeviceError``)
        leaves the commands after it checked anyway, up to ``index``:
        their counts, draws and any pending fire's ``fired`` stay spent,
        and the pending fire is never committed.
        """
        end = len(ranges)
        if not self.active or start >= end:
            return end, None
        candidates = self._by_site.get(site)
        if candidates is None:
            candidates = self._candidates(site)
        index, fire = end, None
        if candidates:
            index, fire = self._match(site, candidates, op, ranges, start, now)
        checked = (index + 1 if fire is not None else end) - start
        self.counts[site] = self.counts.get(site, 0) + checked
        return index, fire

    def ops_seen(self, prefix: str) -> int:
        """Checks observed (while active) at sites under ``prefix``."""
        return sum(n for site, n in self.counts.items() if site.startswith(prefix))
