"""Declarative SLOs, error budgets, and multi-window burn-rate alerting.

The judgment layer on top of the telemetry plane: a :class:`SloSpec`
names an objective ("95% of foreground reads finish within 2 ms"), an
evaluator rolls one window's values into per-window compliance,
error-budget consumption, and fast/slow burn rates (the SRE
multi-window alerting shape), and a :class:`SloPlane` runs one
evaluator per spec behind a single ``evaluate(index, values)``
surface, which the fleet monitor behind ``repro fleet --slo`` calls
once per scheduler tick with that tick's values.

Everything is virtual-time-deterministic: the same telemetry points
produce the same windows, the same burn rates, the same alerts — so the
``repro.slo/v1`` document this module builds is byte-reproducible per
seed, fingerprinted, and comparable through the SLO
:class:`~repro.doc.DocType` (compliance or budget going *down* is a
regression, breaches or burn going *up* is a regression).

Definitions (per spec):

- a sample is **bad** when it violates the objective
  (``value > threshold`` for ``objective="le"``, ``value < threshold``
  for ``"ge"``);
- a window **breaches** when its bad fraction exceeds the error budget
  ``1 - target`` (the window alone would miss the SLO);
- the window's **burn rate** is ``bad_fraction / (1 - target)`` — 1.0
  means spending budget exactly as fast as the target allows;
- an **alert** fires when the mean burn over the last ``fast_windows``
  windows reaches ``fast_burn`` *and* the mean over the last
  ``slow_windows`` windows reaches ``slow_burn`` (fast catches the
  spike, slow confirms it is not noise).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..doc import SLO
from . import hooks as obs_hooks

#: document schema tag; bump on incompatible layout changes
SCHEMA = SLO.schema

fingerprint, save, load, compare = SLO.fingerprint, SLO.save, SLO.load, SLO.compare

#: objective directions: good when value <= / >= threshold
OBJECTIVES = ("le", "ge")


@dataclass(frozen=True)
class SloSpec:
    """One declarative objective over one telemetry series."""

    name: str
    #: name of the metric stream this objective watches
    metric: str
    #: objective boundary a sample is judged against
    threshold: float
    #: "le": samples are good when value <= threshold; "ge": when >=
    objective: str = "le"
    #: compliance target over the run (error budget = 1 - target)
    target: float = 0.95
    #: burn-rate alerting windows (fast spike + slow confirmation)
    fast_windows: int = 1
    slow_windows: int = 4
    fast_burn: float = 4.0
    slow_burn: float = 2.0

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        if not 0.0 < self.target < 1.0:
            raise ValueError("target must be in (0, 1)")
        if self.fast_windows < 1 or self.slow_windows < 1:
            raise ValueError("burn windows must be >= 1")
        if self.fast_burn <= 0 or self.slow_burn <= 0:
            raise ValueError("burn thresholds must be positive")

    @property
    def budget(self) -> float:
        """The error budget: tolerated bad fraction over the run."""
        return 1.0 - self.target

    def bad(self, value: float) -> bool:
        if self.objective == "le":
            return value > self.threshold
        return value < self.threshold

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "metric": self.metric,
            "threshold": self.threshold,
            "objective": self.objective,
            "target": self.target,
            "fast_windows": self.fast_windows,
            "slow_windows": self.slow_windows,
            "fast_burn": self.fast_burn,
            "slow_burn": self.slow_burn,
        }


class WindowVerdict:
    """One evaluated window of one SLO."""

    __slots__ = ("index", "samples", "bad", "burn", "fast", "slow",
                 "breach", "alert")

    def __init__(self, index: int, samples: int, bad: int, burn: float,
                 fast: float, slow: float, breach: bool, alert: bool) -> None:
        self.index = index
        self.samples = samples
        self.bad = bad
        self.burn = burn
        self.fast = fast
        self.slow = slow
        self.breach = breach
        self.alert = alert


class SloEvaluator:
    """Rolls one series' windows into budget consumption and burn rates."""

    def __init__(self, spec: SloSpec) -> None:
        self.spec = spec
        self.windows = 0
        self.samples = 0
        self.bad_samples = 0
        self.breaches = 0
        self.alerts = 0
        #: per-window burn rates, evaluation order
        self.burn_history: List[float] = []
        self.max_fast = 0.0
        self.max_slow = 0.0
        #: the latest window's verdict (None before the first window)
        self.last: Optional[WindowVerdict] = None

    def evaluate_window(self, index: int, values: Sequence[float]) -> WindowVerdict:
        spec = self.spec
        samples = len(values)
        bad = sum(1 for value in values if spec.bad(value))
        burn = (bad / samples) / spec.budget if samples else 0.0
        self.burn_history.append(burn)
        fast_tail = self.burn_history[-spec.fast_windows:]
        slow_tail = self.burn_history[-spec.slow_windows:]
        fast = sum(fast_tail) / len(fast_tail)
        slow = sum(slow_tail) / len(slow_tail)
        breach = samples > 0 and (bad / samples) > spec.budget
        alert = fast >= spec.fast_burn and slow >= spec.slow_burn
        self.windows += 1
        self.samples += samples
        self.bad_samples += bad
        if breach:
            self.breaches += 1
        if alert:
            self.alerts += 1
        if fast > self.max_fast:
            self.max_fast = fast
        if slow > self.max_slow:
            self.max_slow = slow
        self.last = WindowVerdict(index, samples, bad, burn, fast, slow,
                                  breach, alert)
        return self.last

    # -- whole-run views -----------------------------------------------

    @property
    def compliance(self) -> float:
        """Good fraction over every evaluated sample (1.0 when idle)."""
        if not self.samples:
            return 1.0
        return 1.0 - self.bad_samples / self.samples

    @property
    def budget_consumed(self) -> float:
        """Error budget spent: 1.0 = the whole run's budget is gone."""
        if not self.samples:
            return 0.0
        return (self.bad_samples / self.samples) / self.spec.budget

    @property
    def budget_remaining(self) -> float:
        """Unspent budget fraction (negative once overspent)."""
        return 1.0 - self.budget_consumed

    def summary(self) -> Dict[str, object]:
        last = self.last
        return {
            "metric": self.spec.metric,
            "objective": self.spec.objective,
            "threshold": self.spec.threshold,
            "target": self.spec.target,
            "windows": self.windows,
            "samples": self.samples,
            "bad_samples": self.bad_samples,
            "compliance": self.compliance,
            "budget_consumed": self.budget_consumed,
            "budget_remaining": self.budget_remaining,
            "breaches": self.breaches,
            "alerts": self.alerts,
            "max_fast_burn": self.max_fast,
            "max_slow_burn": self.max_slow,
            "last_fast_burn": last.fast if last else 0.0,
            "last_slow_burn": last.slow if last else 0.0,
            "burn": list(self.burn_history),
        }


class SloPlane:
    """One evaluator per spec, judged one window at a time.

    Window ``i`` covers virtual time ``[i * window, (i + 1) * window)``.
    The caller hands :meth:`evaluate` every value each watched metric
    produced in one window, so a verdict judges all of its samples and
    the plane itself stores no values.

    When the current instrumentation (:func:`repro.obs.hooks.current`)
    is armed the plane mirrors verdicts outward: ``slo.breach`` /
    ``slo.burn`` events into the shared ring, plus ``slo.<name>.
    burn_fast`` / ``slo.<name>.budget_remaining`` gauges and
    ``slo.breaches`` / ``slo.alerts`` counters in the registry.
    Evaluation itself never reads the clock or the registry, so
    documents stay byte-identical with or without an armed
    instrumentation.
    """

    def __init__(
        self,
        specs: Sequence[SloSpec],
        window: float,
    ) -> None:
        if window <= 0:
            raise ValueError("window width must be positive")
        self.specs = list(specs)
        names = [spec.name for spec in self.specs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate SLO spec names")
        self.window = window
        self.evaluators: Dict[str, SloEvaluator] = {
            spec.name: SloEvaluator(spec) for spec in self.specs
        }
        #: alert rows, evaluation order: the document's ``alerts`` table
        self.alerts: List[Dict[str, object]] = []

    def evaluate(
        self, index: int, values: Dict[str, Sequence[float]]
    ) -> List[Dict[str, object]]:
        """Judge window ``index`` of every spec; return the alerts fired.

        ``values`` maps metric name -> the window's values.  A metric
        with no entry is an idle window: it burns no budget but
        advances the slow-burn tail.  Fired rows are also appended to
        ``self.alerts``.
        """
        obs = obs_hooks.current()
        time_s = (index + 1) * self.window
        fired: List[Dict[str, object]] = []
        for spec in self.specs:
            evaluator = self.evaluators[spec.name]
            verdict = evaluator.evaluate_window(index, values.get(spec.metric, ()))
            if obs.enabled:
                _mirror(obs, time_s, spec, evaluator, verdict)
            if verdict.alert:
                row = {
                    "slo": spec.name,
                    "window": index,
                    "time_s": time_s,
                    "fast_burn": verdict.fast,
                    "slow_burn": verdict.slow,
                    "bad": verdict.bad,
                    "samples": verdict.samples,
                }
                self.alerts.append(row)
                fired.append(row)
        return fired

    # -- whole-run views -----------------------------------------------

    def summaries(self) -> Dict[str, Dict[str, object]]:
        return {
            spec.name: self.evaluators[spec.name].summary()
            for spec in self.specs
        }


def _mirror(obs, now: float, spec: SloSpec, evaluator: SloEvaluator,
            verdict: WindowVerdict) -> None:
    """Mirror one verdict into an armed instrumentation."""
    registry = obs.registry
    registry.gauge(f"slo.{spec.name}.burn_fast").set(verdict.fast)
    registry.gauge(f"slo.{spec.name}.burn_slow").set(verdict.slow)
    registry.gauge(f"slo.{spec.name}.budget_remaining").set(
        evaluator.budget_remaining
    )
    if verdict.breach:
        registry.counter("slo.breaches").inc()
        obs.event(
            "slo.breach", now, track="slo", slo=spec.name,
            window=verdict.index, bad=verdict.bad,
            samples=verdict.samples, burn=verdict.burn,
        )
    if verdict.alert:
        registry.counter("slo.alerts").inc()
        obs.event(
            "slo.burn", now, track="slo", slo=spec.name,
            window=verdict.index, fast=verdict.fast, slow=verdict.slow,
        )


# ----------------------------------------------------------------------
# the repro.slo/v1 document
# ----------------------------------------------------------------------

def build_document(
    label: str,
    source: Dict[str, object],
    plane: SloPlane,
) -> Dict[str, object]:
    """Assemble (and fingerprint) one ``repro.slo/v1`` document.

    ``source`` names what produced the telemetry — e.g.
    ``{"kind": "fleet", "config": {...}}`` — so two documents are only
    meaningfully compared when their sources match.
    """
    doc: Dict[str, object] = {
        "schema": SCHEMA,
        "label": label,
        "source": dict(source),
        "window_s": plane.window,
        "specs": [spec.to_dict() for spec in plane.specs],
        "slos": plane.summaries(),
        "alerts": list(plane.alerts),
    }
    doc["fingerprint"] = SLO.fingerprint(doc)
    return doc


def validate(document: Dict[str, object]) -> None:
    """Structural sanity of a loaded document (raises on violations)."""
    if document.get("schema") != SCHEMA:
        raise ValueError(f"bad schema: {document.get('schema')!r}")
    if document.get("fingerprint") != SLO.fingerprint(document):
        raise ValueError("fingerprint does not match document body")
    slos = document.get("slos", {})
    if not isinstance(slos, dict) or not slos:
        raise ValueError("document has no slos")
    for name, summary in slos.items():
        consumed = summary["budget_consumed"]
        remaining = summary["budget_remaining"]
        if abs((consumed + remaining) - 1.0) > 1e-9:
            raise ValueError(f"{name}: budget does not sum to 1.0")
        if summary["alerts"] > summary["windows"]:
            raise ValueError(f"{name}: more alerts than windows")


# ----------------------------------------------------------------------
# rendering + Prometheus export
# ----------------------------------------------------------------------

def report_text(document: Dict[str, object]) -> str:
    """Plain-text report of one SLO document."""
    lines = [
        "SLO report",
        "=" * 10,
        "",
        f"source  : {document['source'].get('kind', '?')}, "
        f"window {document['window_s']}s, label {document['label']}",
        "",
        "  slo                       objective                           "
        "  compliance   target  budget-left  breaches  alerts  max-burn f/s",
    ]
    for name in sorted(document["slos"]):
        summary = document["slos"][name]
        objective = (
            f"{summary['metric']} {summary['objective']} "
            f"{summary['threshold']:g}"
        )
        lines.append(
            f"  {name:<24}  {objective:<36}  {summary['compliance']:>8.2%}"
            f"  {summary['target']:>6.0%}  {summary['budget_remaining']:>+10.2%}"
            f"  {summary['breaches']:>8}  {summary['alerts']:>6}"
            f"  {summary['max_fast_burn']:.2f}/{summary['max_slow_burn']:.2f}"
        )
    alerts = document["alerts"]
    lines.append("")
    if alerts:
        lines.append(f"  {len(alerts)} burn-rate alert(s):")
        for row in alerts:
            lines.append(
                f"    [window {row['window']:>3} @ {row['time_s']:.2f}s] "
                f"{row['slo']}: fast {row['fast_burn']:.2f} / "
                f"slow {row['slow_burn']:.2f} "
                f"({row['bad']}/{row['samples']} bad)"
            )
    else:
        lines.append("  no burn-rate alerts fired")
    lines.append("")
    lines.append(f"fingerprint: {document['fingerprint']}")
    return "\n".join(lines)


def prometheus_registry(document: Dict[str, object]):
    """Budget/burn gauges of a document, as an exportable registry.

    Feed the result to :func:`repro.obs.export.prometheus_text` to get
    the byte-deterministic text-format rendering (``repro fleet
    --slo-prom``).
    """
    from .metrics import MetricsRegistry

    registry = MetricsRegistry()
    for name in sorted(document["slos"]):
        summary = document["slos"][name]
        registry.gauge(f"slo.{name}.budget_remaining").set(
            summary["budget_remaining"]
        )
        registry.gauge(f"slo.{name}.compliance").set(summary["compliance"])
        registry.counter(f"slo.{name}.breaches").inc(summary["breaches"])
        registry.counter(f"slo.{name}.alerts").inc(summary["alerts"])
    return registry

