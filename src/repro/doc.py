"""Fingerprinted JSON documents: one layer for BENCH, FLEET, REPLAY and SLO.

One :class:`DocType` per schema holds the whole contract of a document
verb: ``fingerprint`` (``sha256[:16]`` of the canonical JSON minus the
``unhashed`` keys), ``save``/``load`` (``load`` rejects a foreign
schema) and ``compare``, a direction-aware walk over a declarative table
``{metric: (json path, "higher" | "lower"[, noise floor])}``.  A ``*``
segment fans out over the baseline's keys in sorted order; paths sharing
a prefix are walked together, so findings come per variant in table
order.  ``*`` bindings fill each finding's ``(figure, variant)`` after
the type's fixed ``where`` prefix and any left over extend the metric
name.  A path missing from one document only is skipped with a warning.
This module imports nothing from the rest of ``repro``.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, List, NamedTuple, Optional, Tuple


def canonical(body: object) -> str:
    """The canonical JSON text every fingerprint in the repo hashes."""
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def digest(body: object) -> str:
    """Short stable hash of ``body``: ``sha256[:16]`` of its canonical JSON."""
    return hashlib.sha256(canonical(body).encode()).hexdigest()[:16]


def dumps(document: Dict[str, object]) -> str:
    """The on-disk form of a document: indented, key-sorted JSON."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


class Finding(NamedTuple):
    """One compared value: where it lives, both readings, the verdict."""

    figure: str
    variant: str
    metric: str
    baseline: float
    candidate: float
    change: float            # signed relative change, candidate vs baseline
    regression: bool

    def describe(self) -> str:
        arrow = "REGRESSION" if self.regression else "ok"
        return (
            f"[{arrow}] {self.figure}/{self.variant} {self.metric}: "
            f"{self.baseline:.6g} -> {self.candidate:.6g} "
            f"({self.change:+.1%})"
        )


class _ComparisonFields(NamedTuple):
    baseline_label: str
    candidate_label: str
    threshold: float
    findings: List[Finding]
    warnings: List[str]
    #: which document family the comparison covers (report header)
    kind: str


class Comparison(_ComparisonFields):
    """A compare's findings and warnings; the walk appends to both lists."""

    __slots__ = ()

    def __new__(cls, baseline_label: str, candidate_label: str, threshold: float,
                findings: Optional[List[Finding]] = None,
                warnings: Optional[List[str]] = None, kind: str = "bench") -> "Comparison":
        return _ComparisonFields.__new__(
            cls, baseline_label, candidate_label, threshold,
            findings if findings is not None else [],
            warnings if warnings is not None else [], kind,
        )

    @property
    def regressions(self) -> List[Finding]:
        return [f for f in self.findings if f.regression]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def report(self) -> str:
        lines = [
            f"{self.kind} compare: {self.baseline_label} (baseline) vs "
            f"{self.candidate_label} (candidate), threshold {self.threshold:.0%}"
        ]
        lines += [f"  note: {w}" for w in self.warnings]
        for finding in self.regressions:
            lines.append("  " + finding.describe())
        moved = [
            f for f in self.findings
            if not f.regression and abs(f.change) >= self.threshold
        ]
        for finding in moved:
            lines.append("  " + finding.describe())
        lines.append(
            f"  {len(self.findings)} values compared, "
            f"{len(self.regressions)} regression(s)"
        )
        return "\n".join(lines)


def lookup(node: object, *keys: str, default: object = None) -> object:
    """``node[k0][k1]...``, or ``default`` once a key or a dict is missing."""
    for key in keys:
        node = node.get(key) if isinstance(node, dict) else None
    return default if node is None else node


def _tree(compared: Dict[str, tuple]) -> Dict[str, object]:
    """The compare table as a prefix tree; a leaf is ``(name, rule...)``."""
    root: Dict[str, object] = {}
    for name, (path, *rule) in compared.items():
        *parents, leaf = path.split(".")
        node = root
        for segment in parents:
            node = node.setdefault(segment, {})
        node[leaf] = (name, *rule)
    return root


class DocType(NamedTuple):
    """One document schema: its fingerprint rule, persistence and compare."""

    schema: str
    kind: str
    #: top-level keys the fingerprint leaves out
    unhashed: Tuple[str, ...]
    #: top-level keys whose mismatch makes a compare warning
    identity: Tuple[str, ...]
    #: metric name -> (json path, "higher" | "lower"[, noise floor])
    compared: Dict[str, tuple]
    #: keys of the value a compare report names each document by
    label: Tuple[str, ...] = ("label",)
    #: fixed leading part of every finding's (figure, variant)
    where: Tuple[str, ...] = ()
    #: baselines smaller than this count as zero (change reported +100 %);
    #: also the default noise floor below which both readings are skipped
    zero: float = 1e-12

    def fingerprint(self, document: Dict[str, object]) -> str:
        return digest({
            k: v for k, v in document.items() if k not in self.unhashed
        })

    def save(self, path: str, document: Dict[str, object]) -> None:
        with open(path, "w") as fh:
            fh.write(dumps(document))

    def load(self, path: str) -> Dict[str, object]:
        with open(path) as fh:
            document = json.load(fh)
        schema = document.get("schema")
        if schema != self.schema:
            raise ValueError(
                f"{path}: unsupported {self.kind} schema {schema!r} "
                f"(want {self.schema!r})"
            )
        return document

    def compare(
        self,
        baseline: Dict[str, object],
        candidate: Dict[str, object],
        threshold: float = 0.10,
    ) -> Comparison:
        """Direction-aware comparison of two documents of this type."""
        comparison = Comparison(
            baseline_label=str(lookup(baseline, *self.label, default="?")),
            candidate_label=str(lookup(candidate, *self.label, default="?")),
            threshold=threshold,
            kind=self.kind,
        )
        for key in self.identity:
            base, cand = baseline.get(key), candidate.get(key)
            if base != cand:
                comparison.warnings.append(
                    f"{key}s differ (fingerprints {digest(base)} vs "
                    f"{digest(cand)}): the documents describe different runs"
                )
        self._walk(comparison, _tree(self.compared), baseline, candidate, (), ())
        return comparison

    def _walk(self, comparison, tree, base, cand, at, bound) -> None:
        """Compare ``base``/``cand`` under ``tree``: ``at`` is the key path
        walked so far, ``bound`` the keys its ``*`` segments matched."""
        for segment, node in tree.items():
            fan_out = segment == "*"
            if fan_out:
                keys = sorted(base) if isinstance(base, dict) else []
            else:
                keys = [segment]
            for key in keys:
                b, c = lookup(base, key), lookup(cand, key)
                path = at + (key,)
                if b is None or c is None:
                    if b is not None or c is not None:
                        side = "candidate" if c is None else "baseline"
                        comparison.warnings.append(
                            f"{'.'.join(path)} missing from {side}"
                        )
                    continue
                matched = bound + (key,) if fan_out else bound
                if isinstance(node, dict):
                    self._walk(comparison, node, b, c, path, matched)
                else:
                    self._judge(comparison, node, float(b), float(c), matched)

    def _judge(self, comparison, rule, base, cand, bound) -> None:
        name, direction, *floor = rule
        if max(abs(base), abs(cand)) < (floor[0] if floor else self.zero):
            return  # both effectively zero: nothing to compare
        change = (cand - base) / abs(base) if abs(base) >= self.zero else math.inf
        if direction == "higher":
            regression = change <= -comparison.threshold
        else:
            regression = change >= comparison.threshold
        figure, variant, *rest = self.where + bound
        comparison.findings.append(Finding(
            figure=figure, variant=variant, metric=".".join((name, *rest)),
            baseline=base, candidate=cand,
            change=1.0 if change == math.inf else change,
            regression=regression,
        ))


#: ``repro bench``: per-figure, per-variant throughput, split fan-out and
#: latency attribution.  The stored ``fingerprint`` is the config hash
#: (:func:`digest` of ``config``); :meth:`DocType.fingerprint` hashes the
#: results, which is what the run ledger records.
BENCH = DocType(
    schema="repro.bench/v1",
    kind="bench",
    unhashed=("fingerprint", "label"),
    identity=("config",),
    compared={
        "throughput_mbps": ("figures.*.*.throughput_mbps", "higher"),
        "ops_per_sec": ("figures.*.*.ops_per_sec", "higher"),
        "grep_gb_per_s": ("figures.*.*.grep_gb_per_s", "higher"),
        # seconds below a microsecond are noise in an attribution slice
        "attribution": ("figures.*.*.attribution.components_s.*", "lower", 1e-6),
        "split_fanout.mean": ("figures.*.*.split_fanout.mean", "lower"),
    },
    zero=1e-9,
)

#: ``repro fleet``: the fleet SLO report
FLEET = DocType(
    schema="repro.fleet/v1",
    kind="fleet",
    unhashed=("fingerprint",),
    identity=("config",),
    compared={
        "fg_read_p50_s": ("foreground.read_p50_s", "lower"),
        "fg_read_p99_s": ("foreground.read_p99_s", "lower"),
        "fg_read_mean_s": ("foreground.read_mean_s", "lower"),
        "fg_ops": ("foreground.ops", "higher"),
        "volumes_above_end": ("census.volumes_above_end", "lower"),
    },
    label=("config", "seed"),
    where=("fleet", "slo"),
)

#: ``repro replay``: live-versus-raw replay figures; a relabelled run
#: keeps its fingerprint
REPLAY = DocType(
    schema="repro.replay/v1",
    kind="replay",
    unhashed=("fingerprint", "label"),
    identity=("config", "trace"),
    compared={
        "ops_per_vsec": ("figures.ops_per_vsec", "higher"),
        "read_mbps": ("figures.read_mbps", "higher"),
        "cache_hit_ratio": ("figures.cache_hit_ratio", "higher"),
        "elapsed_s": ("figures.elapsed_s", "lower"),
        "split_fanout_mean": ("split_fanout.mean", "lower"),
        "attribution": ("attribution.components_s.*", "lower", 1e-6),
    },
    where=("replay", "stream"),
)

#: ``repro fleet --slo-json``: per-objective compliance, budget and burn
SLO = DocType(
    schema="repro.slo/v1",
    kind="slo",
    unhashed=("fingerprint",),
    identity=("source",),
    compared={
        "compliance": ("slos.*.compliance", "higher"),
        "budget_remaining": ("slos.*.budget_remaining", "higher"),
        "breaches": ("slos.*.breaches", "lower"),
        "alerts": ("slos.*.alerts", "lower"),
        "max_fast_burn": ("slos.*.max_fast_burn", "lower"),
        "max_slow_burn": ("slos.*.max_slow_burn", "lower"),
    },
    where=("slo",),
)
