"""The per-site compiled fault plane answers exactly like a linear scan.

``FaultPlane.check`` caches, per full site name, the rules whose site
prefix covers it.  The reference below is the linear scan the cache
replaced, kept as it was: it walks every rule on every check.  Both planes
replay the same seeded stream of checks and must agree fire-for-fire,
in per-site counts, in per-rule ``matched``/``fired`` and in every
rule's RNG state.  ``FaultPlane.scan`` is held to the same reference:
one batch scan must make exactly the checks of one ``check`` per command.
"""

import random
from typing import Optional

import pytest

from repro.block import IoOp
from repro.constants import block_align_down
from repro.faults import FaultPlan, FaultPlane
from repro.faults.hooks import FaultFire
from repro.obs import hooks as obs_hooks


class LinearScanPlane(FaultPlane):
    """The pre-cache ``check``: test every rule's site prefix each time."""

    def check(
        self,
        site: str,
        op: Optional[str] = None,
        offset: Optional[int] = None,
        length: Optional[int] = None,
        now: float = 0.0,
    ) -> Optional[FaultFire]:
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


#: full site names, including ones a shorter rule prefix covers by
#: string prefix only ("fs.writeback" under "fs.write", "devices" under
#: "device")
SITES = (
    "fs.read", "fs.write", "fs.writeback", "fs.fsync", "fs.fallocate",
    "fs.truncate", "fs.fiemap", "block.submit", "device.submit", "devices",
)
OPS = ("read", "write", "fsync", "fallocate", None)


def _overlapping_prefixes(seed):
    return (
        FaultPlan(seed=seed)
        .io_error("fs", probability=0.05, max_fires=0)
        .latency_spike("fs.write", latency=0.002, probability=0.3, max_fires=4)
        .io_error("device", op="read", probability=0.1, max_fires=0)
        .latency_spike("device.submit", probability=0.5, max_fires=0)
        .torn_write("fs.write", torn_fraction=0.4, probability=0.2, max_fires=3)
    )


def _filters(seed):
    return (
        FaultPlan(seed=seed)
        .io_error("fs.write", lba=(1 << 20, 3 << 20), max_fires=2)
        .crash("fs", after_ops=37)
        .latency_spike("block", at_time=0.5, probability=0.25, max_fires=5)
        .io_error("device.submit", op="write", after_ops=11)
        .torn_write("fs", lba=(0, 1 << 22), at_time=0.2, max_fires=0)
        .io_error("", probability=0.01, max_fires=0)
        .latency_spike("submit", max_fires=0)  # a substring, never a prefix
    )


def _everything_unlimited(seed):
    return (
        FaultPlan(seed=seed)
        .latency_spike("", max_fires=0, probability=0.5)
        .latency_spike("fs", max_fires=0, op="write")
        .latency_spike("fs.fsync", max_fires=0)
        .io_error("device.submit", max_fires=0, lba=(0, 1 << 21))
    )


def _stream(seed, n):
    rng = random.Random(seed)
    now = 0.0
    for _ in range(n):
        now += rng.random() * 0.002
        offset = None if rng.random() < 0.1 else rng.randrange(0, 1 << 23, 4096)
        length = rng.choice((None, 0, 4096, 16384, 131072, 1 << 20))
        yield rng.choice(SITES), rng.choice(OPS), offset, length, now


def _state(plane):
    return [
        (state.matched, state.fired,
         state.rng.getstate() if state.rng is not None else None)
        for state in plane._rules
    ]


@pytest.mark.parametrize("seed", [1, 7, 42])
@pytest.mark.parametrize(
    "build", [_overlapping_prefixes, _filters, _everything_unlimited]
)
def test_site_cache_matches_linear_scan(build, seed):
    cached = FaultPlane(build(seed), active=True)
    linear = LinearScanPlane(build(seed), active=True)
    for step, (site, op, offset, length, now) in enumerate(_stream(seed, 3000)):
        if step == 1500:  # an inactive stretch: neither plane counts it
            cached.deactivate()
            linear.deactivate()
        if step == 1700:
            cached.activate()
            linear.activate()
        got = cached.check(site, op=op, offset=offset, length=length, now=now)
        want = linear.check(site, op=op, offset=offset, length=length, now=now)
        assert got == want, (step, site, op, offset, length, now)
    assert cached.stats.fires == linear.stats.fires
    assert cached.stats.by_site_kind == linear.stats.by_site_kind
    assert cached.counts == linear.counts
    assert _state(cached) == _state(linear)
    assert cached.stats.total > 0  # the stream did exercise the rules


def test_first_matching_rule_wins_across_prefixes():
    plan = (
        FaultPlan(seed=0)
        .latency_spike("fs", max_fires=0)
        .io_error("fs.write", max_fires=0)
    )
    plane = FaultPlane(plan, active=True)
    fire = plane.check("fs.write", op="write", offset=0, length=4096)
    assert fire.rule_index == 0 and fire.kind == "latency"
    # the broader rule is listed second here, so the narrow one wins
    plan = (
        FaultPlan(seed=0)
        .io_error("fs.write", max_fires=0)
        .latency_spike("fs", max_fires=0)
    )
    plane = FaultPlane(plan, active=True)
    assert plane.check("fs.write", op="write").rule_index == 0
    assert plane.check("fs.read", op="read").rule_index == 1
    assert plane.check("device.submit", op="read") is None


# ----------------------------------------------------------------------
# FaultPlane.scan: one query per command batch
# ----------------------------------------------------------------------

#: (ops the batches draw from, sites they are scanned at)
BATCH_OPS = (IoOp.READ, IoOp.WRITE, IoOp.DISCARD)
BATCH_SITES = ("device.submit", "devices")


def _pure_probability(seed):
    # one filterless probability rule per site
    return (
        FaultPlan(seed=seed)
        .latency_spike("device.submit", probability=0.05, max_fires=0)
        .io_error("devices", probability=0.2, max_fires=3)
    )


def _batch_filters(seed):
    return (
        FaultPlan(seed=seed)
        .latency_spike("device.submit", latency=0.001, probability=0.02, max_fires=0)
        .io_error("device", op="read", lba=(1 << 20, 3 << 20), max_fires=4)
        .crash("device.submit", after_ops=211)
        .torn_write("device", torn_fraction=0.3, probability=0.1, max_fires=5)
        .latency_spike("devices", at_time=0.4, probability=0.3, max_fires=0)
        .io_error("device.submit", op="discard", after_ops=17)
    )


def _batches(seed, n):
    """Seeded single-op batches: ``(site, op value, ranges, now)``."""
    rng = random.Random(seed)
    now = 0.0
    for _ in range(n):
        now += rng.random() * 0.002
        size = rng.choice((1, 1, 1, 2, 3, 8, 24))
        op = rng.choice(BATCH_OPS).value
        ranges = [
            (rng.randrange(0, 1 << 23, 4096), rng.choice((4096, 16384, 131072)))
            for _ in range(size)
        ]
        yield rng.choice(BATCH_SITES), op, ranges, now


def _scan_all(plane, site, op, ranges, now):
    """Every fire a batch scan reports, committing each and scanning on."""
    fires = []
    index, fire = plane.scan(site, op, ranges, 0, now)
    while fire is not None:
        plane.commit(fire)
        fires.append((index, fire))
        index, fire = plane.scan(site, op, ranges, index + 1, now)
    assert index == len(ranges)
    return fires


def _check_all(plane, site, op, ranges, now):
    """The same batch checked one command at a time."""
    fires = []
    for index, (offset, length) in enumerate(ranges):
        fire = plane.check(site, op=op, offset=offset, length=length, now=now)
        if fire is not None:
            fires.append((index, fire))
    return fires


@pytest.mark.parametrize("seed", [3, 7, 11])
@pytest.mark.parametrize(
    "build", [_pure_probability, _batch_filters, _overlapping_prefixes]
)
def test_scan_matches_per_command_checks(build, seed):
    scanned = FaultPlane(build(seed), active=True)
    checked = LinearScanPlane(build(seed), active=True)
    for step, (site, op, ranges, now) in enumerate(_batches(seed, 1500)):
        if step == 700:  # an inactive stretch: neither plane counts it
            scanned.deactivate()
            checked.deactivate()
        if step == 800:
            scanned.activate()
            checked.activate()
        got = _scan_all(scanned, site, op, ranges, now)
        want = _check_all(checked, site, op, ranges, now)
        assert got == want, (step, site, now)
    assert scanned.stats.fires == checked.stats.fires
    assert scanned.stats.by_site_kind == checked.stats.by_site_kind
    assert scanned.counts == checked.counts
    assert _state(scanned) == _state(checked)
    assert scanned.stats.total > 0
    kinds = {fire.kind for fire in scanned.stats.fires}
    if build is _batch_filters:
        assert kinds == {"latency", "io_error", "crash", "torn"}


def test_covers_names_the_sites_a_rule_reaches():
    plane = FaultPlane(_pure_probability(0), active=True)
    assert plane.covers("device.submit") and plane.covers("devices")
    assert not plane.covers("block.submit") and not plane.covers("device")
    assert plane.counts == {}  # asking is not a check


def test_scan_defers_commit_to_the_caller():
    plane = FaultPlane(FaultPlan(seed=1).latency_spike("device.submit", max_fires=0),
                       active=True)
    ranges = [(0, 4096)] * 3
    index, fire = plane.scan("device.submit", "write", ranges, 0, 0.5)
    assert (index, fire.kind, fire.op, fire.now) == (0, "latency", "write", 0.5)
    assert plane.stats.total == 0 and plane.counts == {"device.submit": 1}
    plane.commit(fire)
    assert plane.stats.fires == [fire]
    assert plane.scan("device.submit", "write", ranges, 3, 0.5) == (3, None)
    plane.deactivate()
    assert plane.scan("device.submit", "write", ranges, 0, 0.5) == (3, None)
    assert plane.counts == {"device.submit": 1}


# ----------------------------------------------------------------------
# FaultPlane._match: the one matcher, batch-shaped
# ----------------------------------------------------------------------


def _every_filter(seed):
    """Rules that use op, lba, at_time, after_ops and max_fires, alone
    and together, so fires land mid-batch and rules run out of fires."""
    return (
        FaultPlan(seed=seed)
        .latency_spike("device.submit", op="read", lba=(1 << 20, 5 << 20),
                       at_time=0.3, after_ops=40, max_fires=1)
        .io_error("device.submit", op="write", lba=(0, 2 << 20),
                  probability=0.05, max_fires=3)
        .torn_write("device", torn_fraction=0.3, at_time=0.6,
                    probability=0.1, max_fires=2)
        .latency_spike("device.submit", after_ops=97, max_fires=0)
        .latency_spike("device", op="discard", lba=(2 << 20, 8 << 20),
                       at_time=0.1, probability=0.2, max_fires=0)
        .crash("devices", after_ops=300)
    )


@pytest.mark.parametrize("seed", [2, 13, 29])
@pytest.mark.parametrize("build", [_every_filter, _batch_filters])
def test_batch_match_twins_a_per_command_check_loop(build, seed):
    """One ``_match`` call per batch (resumed after each fire) makes the
    checks one reference ``check`` per command makes: the same fires at
    the same commands, counts, ``matched``/``fired`` and RNG states."""
    batched = FaultPlane(build(seed), active=True)
    reference = LinearScanPlane(build(seed), active=True)
    for step, (site, op, ranges, now) in enumerate(_batches(seed, 2000)):
        candidates = batched._candidates(site)
        got = []
        start = 0
        while start < len(ranges):
            index, fire = batched._match(site, candidates, op, ranges, start, now)
            # the checks the call made: up to and including a fire
            checked = (index + 1 if fire is not None else index) - start
            batched.counts[site] = batched.counts.get(site, 0) + checked
            if fire is None:
                break
            batched.commit(fire)
            got.append((index, fire))
            start = index + 1
        want = _check_all(reference, site, op, ranges, now)
        assert got == want, (step, site, op, now)
        assert _state(batched) == _state(reference), step
    assert batched.stats.fires == reference.stats.fires
    assert batched.counts == reference.counts
    assert batched.stats.total > 0
    if build is _every_filter:
        rules = {fire.rule_index for fire in batched.stats.fires}
        assert rules == set(range(len(batched._rules)))


def test_match_leaves_commit_and_counts_to_the_caller():
    plane = FaultPlane(FaultPlan(seed=0).io_error("device.submit", after_ops=3),
                       active=True)
    candidates = plane._candidates("device.submit")
    ranges = [(0, 4096), (8192, 4096), (65536, 4096), (0, 4096)]
    index, fire = plane._match("device.submit", candidates, "read", ranges, 0, 0.0)
    assert (index, fire.kind, fire.op) == (2, "io_error", "read")
    assert plane._rules[0].matched == 3 and plane._rules[0].fired == 1
    assert plane.stats.total == 0 and plane.counts == {}
    # spent: max_fires=1 keeps the rule quiet from here on
    assert plane._match("device.submit", candidates, "read", ranges, 3, 0.0) == (4, None)
    assert plane._rules[0].matched == 3
