"""The table-driven ``DocType.compare`` against the four hand-written loops
it replaced.

``reference_*`` below are the per-module ``compare`` functions the BENCH,
FLEET, REPLAY and SLO modules carried before :mod:`repro.doc` existed,
kept verbatim apart from their imports.  Every numeric leaf of a real
document is perturbed by a seeded factor on each side (exact zeros,
zero/zero pairs and magnitudes straddling the noise floors included) and
both implementations must produce the same findings in the same order.
Documents whose paths are all present are the whole overlap: a path
missing from one side is the one deliberate difference (see
``tests/test_doc.py``).
"""

from __future__ import annotations

import copy
import random
from typing import Dict, Optional

import pytest

from repro import doc
from repro.doc import Comparison, Finding

# ----------------------------------------------------------------------
# reference: BENCH
# ----------------------------------------------------------------------

HIGHER_IS_BETTER = ("throughput_mbps", "ops_per_sec", "grep_gb_per_s")
COMPONENT_FLOOR_S = 1e-6
VALUE_FLOOR = 1e-9


def _relative_change(baseline: float, candidate: float) -> Optional[float]:
    if abs(baseline) < VALUE_FLOOR:
        return None if abs(candidate) < VALUE_FLOOR else float("inf")
    return (candidate - baseline) / abs(baseline)


def _compare_value(comparison, figure, variant, metric, baseline, candidate,
                   higher_is_better, floor=VALUE_FLOOR):
    if max(abs(baseline), abs(candidate)) < floor:
        return  # both effectively zero: nothing to compare
    change = _relative_change(baseline, candidate)
    if change is None:
        return
    if higher_is_better:
        regression = change <= -comparison.threshold
    else:
        regression = change >= comparison.threshold
    comparison.findings.append(Finding(
        figure=figure, variant=variant, metric=metric,
        baseline=baseline, candidate=candidate,
        change=change if change != float("inf") else 1.0,
        regression=regression,
    ))


def _compare_variant(comparison, figure, variant, base, cand):
    for metric in HIGHER_IS_BETTER:
        if metric in base and metric in cand:
            _compare_value(
                comparison, figure, variant, metric,
                float(base[metric]), float(cand[metric]),
                higher_is_better=True,
            )
    base_attr = (base.get("attribution") or {}).get("components_s", {})
    cand_attr = (cand.get("attribution") or {}).get("components_s", {})
    for component in sorted(base_attr):
        if component not in cand_attr:
            continue
        _compare_value(
            comparison, figure, variant, f"attribution.{component}",
            float(base_attr[component]), float(cand_attr[component]),
            higher_is_better=False, floor=COMPONENT_FLOOR_S,
        )
    base_fanout = base.get("split_fanout") or {}
    cand_fanout = cand.get("split_fanout") or {}
    if base_fanout.get("mean") is not None and cand_fanout.get("mean") is not None:
        _compare_value(
            comparison, figure, variant, "split_fanout.mean",
            float(base_fanout["mean"]), float(cand_fanout["mean"]),
            higher_is_better=False,
        )


def reference_bench(baseline, candidate, threshold=0.10):
    comparison = Comparison(
        baseline_label=str(baseline.get("label", "?")),
        candidate_label=str(candidate.get("label", "?")),
        threshold=threshold,
    )
    base_figures = baseline.get("figures", {})
    cand_figures = candidate.get("figures", {})
    for figure in sorted(base_figures):
        if figure not in cand_figures:
            continue
        for variant in sorted(base_figures[figure]):
            if variant not in cand_figures[figure]:
                continue
            _compare_variant(
                comparison, figure, variant,
                base_figures[figure][variant], cand_figures[figure][variant],
            )
    return comparison


# ----------------------------------------------------------------------
# reference: FLEET (fleet/report.py)
# ----------------------------------------------------------------------

_FLEET_COMPARED = {
    "fg_read_p50_s": False,
    "fg_read_p99_s": False,
    "fg_read_mean_s": False,
    "fg_ops": True,
    "volumes_above_end": False,
}


def _fleet_headline(document) -> Dict[str, float]:
    fg = document.get("foreground", {})
    census = document.get("census", {})
    return {
        "fg_read_p50_s": float(fg.get("read_p50_s", 0.0)),
        "fg_read_p99_s": float(fg.get("read_p99_s", 0.0)),
        "fg_read_mean_s": float(fg.get("read_mean_s", 0.0)),
        "fg_ops": float(fg.get("ops", 0)),
        "volumes_above_end": float(census.get("volumes_above_end", 0)),
    }


def reference_fleet(baseline, candidate, threshold=0.10):
    comparison = Comparison(
        baseline_label=str(baseline.get("config", {}).get("seed", "?")),
        candidate_label=str(candidate.get("config", {}).get("seed", "?")),
        threshold=threshold,
        kind="fleet",
    )
    base_values = _fleet_headline(baseline)
    cand_values = _fleet_headline(candidate)
    for metric, higher_is_better in _FLEET_COMPARED.items():
        base = base_values[metric]
        cand = cand_values[metric]
        if max(abs(base), abs(cand)) < 1e-12:
            continue
        if abs(base) < 1e-12:
            change = 1.0
        else:
            change = (cand - base) / abs(base)
        if higher_is_better:
            regression = change <= -threshold
        else:
            regression = change >= threshold
        comparison.findings.append(Finding(
            figure="fleet", variant="slo", metric=metric,
            baseline=base, candidate=cand, change=change,
            regression=regression,
        ))
    return comparison


# ----------------------------------------------------------------------
# reference: REPLAY (replay/report.py)
# ----------------------------------------------------------------------

_REPLAY_COMPARED = {
    "ops_per_vsec": True,
    "read_mbps": True,
    "cache_hit_ratio": True,
    "elapsed_s": False,
    "split_fanout_mean": False,
}


def _replay_headline(document) -> Dict[str, float]:
    figures = document.get("figures", {})
    fanout = document.get("split_fanout", {}) or {}
    return {
        "ops_per_vsec": float(figures.get("ops_per_vsec", 0.0)),
        "read_mbps": float(figures.get("read_mbps", 0.0)),
        "cache_hit_ratio": float(figures.get("cache_hit_ratio", 0.0)),
        "elapsed_s": float(figures.get("elapsed_s", 0.0)),
        "split_fanout_mean": float(fanout.get("mean", 0.0) or 0.0),
    }


def reference_replay(baseline, candidate, threshold=0.10):
    comparison = Comparison(
        baseline_label=str(baseline.get("label", "?")),
        candidate_label=str(candidate.get("label", "?")),
        threshold=threshold,
        kind="replay",
    )
    base_values = _replay_headline(baseline)
    cand_values = _replay_headline(candidate)
    for metric, higher_is_better in _REPLAY_COMPARED.items():
        base, cand = base_values[metric], cand_values[metric]
        if max(abs(base), abs(cand)) < 1e-12:
            continue
        change = (cand - base) / abs(base) if abs(base) >= 1e-12 else 1.0
        if higher_is_better:
            regression = change <= -threshold
        else:
            regression = change >= threshold
        comparison.findings.append(Finding(
            figure="replay", variant="stream", metric=metric,
            baseline=base, candidate=cand, change=change,
            regression=regression,
        ))
    base_attr = (baseline.get("attribution") or {}).get("components_s", {})
    cand_attr = (candidate.get("attribution") or {}).get("components_s", {})
    for component in sorted(base_attr):
        if component not in cand_attr:
            continue
        base, cand = float(base_attr[component]), float(cand_attr[component])
        if max(abs(base), abs(cand)) < 1e-6:
            continue
        change = (cand - base) / abs(base) if abs(base) >= 1e-12 else 1.0
        comparison.findings.append(Finding(
            figure="replay", variant="stream",
            metric=f"attribution.{component}",
            baseline=base, candidate=cand, change=change,
            regression=change >= threshold,
        ))
    return comparison


# ----------------------------------------------------------------------
# reference: SLO (obs/slo.py)
# ----------------------------------------------------------------------

_SLO_COMPARED = {
    "compliance": True,
    "budget_remaining": True,
    "breaches": False,
    "alerts": False,
    "max_fast_burn": False,
    "max_slow_burn": False,
}


def reference_slo(baseline, candidate, threshold=0.10):
    comparison = Comparison(
        baseline_label=str(baseline.get("label", "?")),
        candidate_label=str(candidate.get("label", "?")),
        threshold=threshold,
        kind="slo",
    )
    base_slos = baseline.get("slos", {})
    cand_slos = candidate.get("slos", {})
    for name in sorted(base_slos):
        if name not in cand_slos:
            continue
        for metric, higher_is_better in _SLO_COMPARED.items():
            base = float(base_slos[name][metric])
            cand = float(cand_slos[name][metric])
            if max(abs(base), abs(cand)) < 1e-12:
                continue
            if abs(base) < 1e-12:
                change = 1.0
            else:
                change = (cand - base) / abs(base)
            if higher_is_better:
                regression = change <= -threshold
            else:
                regression = change >= threshold
            comparison.findings.append(Finding(
                figure="slo", variant=name, metric=metric,
                baseline=base, candidate=cand, change=change,
                regression=regression,
            ))
    return comparison


REFERENCES = {
    "bench": (doc.BENCH, reference_bench),
    "fleet": (doc.FLEET, reference_fleet),
    "replay": (doc.REPLAY, reference_replay),
    "slo": (doc.SLO, reference_slo),
}

# ----------------------------------------------------------------------
# the differential
# ----------------------------------------------------------------------

#: multiplicative perturbations: exact zeros, threshold-straddling
#: drifts, and magnitudes that land around the 1e-6 / 1e-9 / 1e-12 floors
FACTORS = (0.0, 0.0, 0.5, 0.9, 0.95, 0.999, 1.0, 1.0, 1.001, 1.05, 1.1,
           1.5, 2.0, 1e-5, 1e-7, 1e-10, 1e-13)

#: replacement readings whose pairwise changes hit the 5 % and 10 %
#: thresholds exactly (10 -> 9 is exactly -0.1)
EXACT = (9.0, 9.5, 10.0, 10.5, 11.0)

SEEDS = 100


def perturb(node, rng: random.Random):
    """A copy of ``node`` with every numeric leaf scaled by a seeded factor."""
    if isinstance(node, dict):
        return {key: perturb(value, rng) for key, value in node.items()}
    if isinstance(node, list):
        return [perturb(value, rng) for value in node]
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        draw = rng.random()
        if draw < 0.2:
            return node * rng.uniform(0.8, 1.25)
        if draw < 0.6:
            return rng.choice(EXACT)
        return node * rng.choice(FACTORS)
    return node


def _rows(comparison):
    return [
        (f.figure, f.variant, f.metric, f.baseline, f.candidate, f.change,
         f.regression)
        for f in comparison.findings
    ]


@pytest.mark.parametrize("threshold", [0.05, 0.10])
@pytest.mark.parametrize("kind", sorted(REFERENCES))
def test_table_compare_matches_the_hand_written_loops(kind, threshold,
                                                      sample_documents):
    doc_type, reference = REFERENCES[kind]
    source = sample_documents[kind]
    compared = zero_baselines = on_threshold = 0
    for seed in range(SEEDS):
        rng = random.Random(f"{kind}-{seed}")
        baseline, candidate = perturb(source, rng), perturb(source, rng)
        expected = _rows(reference(baseline, candidate, threshold))
        got = doc_type.compare(baseline, candidate, threshold)
        assert _rows(got) == expected, (kind, seed)
        assert got.kind == doc_type.kind
        compared += len(expected)
        zero_baselines += sum(1 for row in expected if row[3] == 0.0)
        on_threshold += sum(1 for row in expected if abs(row[5]) == threshold)
    # the inputs really exercised the table, the growth-from-zero rule
    # and both sides of each threshold's boundary
    assert compared > SEEDS * len(doc_type.compared) // 2
    assert zero_baselines > 0
    assert on_threshold > 0


@pytest.mark.parametrize("kind", sorted(REFERENCES))
def test_unperturbed_documents_compare_identically(kind, sample_documents):
    doc_type, reference = REFERENCES[kind]
    document = copy.deepcopy(sample_documents[kind])
    got = doc_type.compare(document, document)
    assert _rows(got) == _rows(reference(document, document))
    assert got.ok and not got.warnings
