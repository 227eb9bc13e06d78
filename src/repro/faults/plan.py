"""The fault-plan DSL: *what* to inject, *where*, and *when*.

A :class:`FaultPlan` is a seeded, declarative list of :class:`FaultRule`\\ s.
Each rule names an injection **site** (a dotted layer path such as
``"device.submit"`` or ``"fs.write"``; prefixes match, so ``"fs"`` covers
every fs syscall), a fault **kind**, and one or more **triggers**:

==============  =============================================================
trigger         fires when
==============  =============================================================
``after_ops``   the Nth call matching the rule's filters is reached
``at_time``     virtual time reaches the given instant
``lba``         the op's offset range overlaps ``[lo, hi)`` (device offsets
                at device sites, file offsets at fs sites)
``op``          the op kind matches (``"read"``/``"write"``/``"fallocate"``…)
``probability`` a Bernoulli draw from the rule's *dedicated* RNG stream
                succeeds — dedicated so that adding a rule never perturbs
                another rule's draws (seeded determinism)
==============  =============================================================

Filters are conjunctive; ``max_fires`` bounds how often a rule may fire
(0 = unlimited).  Plans are pure data — :class:`repro.faults.plane.FaultPlane`
compiles them into live per-rule state.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from ..errors import InvalidArgument
from ..types import Record
from .hooks import BLOCK_SITE

#: fault kinds a rule may inject
KINDS = ("io_error", "latency", "torn", "crash")


class _FaultRuleFields(NamedTuple):
    site: str
    kind: str
    op: Optional[str] = None
    lba: Optional[Tuple[int, int]] = None
    after_ops: Optional[int] = None
    at_time: Optional[float] = None
    probability: Optional[float] = None
    #: extra virtual seconds for ``kind="latency"`` (None = the device
    #: model's characteristic spike, e.g. an HDD bad-sector retry)
    latency: Optional[float] = None
    #: fraction of the data that survives a ``kind="torn"`` write
    torn_fraction: float = 0.5
    #: how many times this rule may fire (0 = unlimited)
    max_fires: int = 1


class FaultRule(_FaultRuleFields):
    """One declarative injection rule (see module docstring)."""

    __slots__ = ()

    def __new__(cls, *args: object, **kwargs: object) -> "FaultRule":
        self = _FaultRuleFields.__new__(cls, *args, **kwargs)
        self._validate()
        return self

    def _validate(self) -> None:
        if self.kind not in KINDS:
            raise InvalidArgument(f"unknown fault kind {self.kind!r}; choose from {KINDS}")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise InvalidArgument(f"probability must be in [0, 1], got {self.probability}")
        if self.after_ops is not None and self.after_ops < 1:
            raise InvalidArgument("after_ops is 1-based and must be >= 1")
        if not 0.0 <= self.torn_fraction < 1.0:
            raise InvalidArgument("torn_fraction must be in [0, 1)")
        if self.max_fires < 0:
            raise InvalidArgument("max_fires must be >= 0 (0 = unlimited)")
        if self.kind == "torn" and BLOCK_SITE.startswith(self.site):
            # the block layer has no data to tear: such a rule would
            # fire, be recorded, and change nothing
            raise InvalidArgument(
                f"torn rule site {self.site!r} covers {BLOCK_SITE!r}, which "
                "cannot tear a write; aim it at fs.write or device.submit"
            )


class FaultPlan(Record):
    """A seeded collection of fault rules.

    The seed feeds every probabilistic rule's dedicated RNG stream, making
    a whole campaign reproducible run-to-run.
    """

    __slots__ = _fields = ("seed", "rules")

    def __init__(self, seed: int = 0, rules: Optional[List[FaultRule]] = None) -> None:
        self.seed = seed
        self.rules = rules if rules is not None else []

    def add(self, rule: FaultRule) -> "FaultPlan":
        self.rules.append(rule)
        return self

    # -- fluent builders for the common shapes -------------------------

    def io_error(self, site: str, **filters: object) -> "FaultPlan":
        """Fail a matching op with :class:`~repro.errors.DeviceIOError`."""
        return self.add(FaultRule(site=site, kind="io_error", **filters))

    def latency_spike(self, site: str, latency: Optional[float] = None, **filters: object) -> "FaultPlan":
        """Stall a matching op (device default spike unless given)."""
        return self.add(FaultRule(site=site, kind="latency", latency=latency, **filters))

    def torn_write(self, site: str, torn_fraction: float = 0.5, **filters: object) -> "FaultPlan":
        """Tear a matching write: only a prefix of the data survives."""
        return self.add(
            FaultRule(site=site, kind="torn", op="write", torn_fraction=torn_fraction, **filters)
        )

    def crash(self, site: str, after_ops: int) -> "FaultPlan":
        """Power off at the Nth op matching ``site`` (the crash harness)."""
        return self.add(FaultRule(site=site, kind="crash", after_ops=after_ops))
