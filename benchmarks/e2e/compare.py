"""Compare two result documents written by ``run.py --out``.

Usage::

    python3 benchmarks/e2e/compare.py BASE.json CANDIDATE.json

For every workload and end-to-end metric it prints both sides' median
and quartiles, the relative change of the median and a verdict against
the metric's bound:

- ``worse``/``better``: the median moved beyond the bound;
- ``unresolved``: either side's quartile spread is wider than the
  bound, unless every run of one side beats every run of the other;
- ``same``: otherwise.

Then it lists each workload's ``self_share`` deltas, largest first, so a
move can be explained by a layer.  Exits 1 if any verdict is ``worse``.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Sequence, Tuple

from spec import E2E, LAYER_MOVES, Metric, quartiles


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    q = quartiles(values)
    return (q["q3"] - q["q1"]) / q["median"] if q["median"] else 0.0


def verdict(metric: Metric, base: Sequence[float], cand: Sequence[float]) -> Tuple[str, float]:
    """``(verdict, relative change of the median)`` for one metric."""
    base_median, cand_median = quartiles(base)["median"], quartiles(cand)["median"]
    change = (cand_median - base_median) / base_median if base_median else 0.0
    lower = metric.better == "lower"
    worsening = change if lower else -change
    if lower:
        cand_wins, base_wins = max(cand) < min(base), max(base) < min(cand)
    else:
        cand_wins, base_wins = min(cand) > max(base), min(base) > max(cand)
    noisy = max(spread(base), spread(cand)) > metric.bound
    if worsening > metric.bound and (not noisy or base_wins):
        return "worse", change
    if worsening < -metric.bound and (not noisy or cand_wins):
        return "better", change
    if noisy and not (base_wins or cand_wins):
        return "unresolved", change
    return "same", change


def compare(base: Dict[str, object], cand: Dict[str, object]) -> Tuple[List[str], List[str]]:
    """Printed lines and the verdicts, one per workload x e2e metric."""
    lines, verdicts = [], []
    names = [name for name in base["workloads"] if name in cand["workloads"]]
    for name in names:
        b, c = base["workloads"][name], cand["workloads"][name]
        lines.append(f"== {name}")
        lines.append(f"   {'metric':<14}{'base median [q1, q3]':>30}"
                     f"{'cand median [q1, q3]':>30}{'change':>9}  verdict")
        for metric in E2E:
            bs, cs = b["e2e"][metric.name]["samples"], c["e2e"][metric.name]["samples"]
            if not bs or not cs:
                lines.append(f"   {metric.name:<14} no samples on one side")
                verdicts.append("unresolved")
                continue
            result, change = verdict(metric, bs, cs)
            verdicts.append(result)
            qb, qc = quartiles(bs), quartiles(cs)
            lines.append(
                f"   {metric.name:<14}"
                f"{qb['median']:>12.4f} [{qb['q1']:.4f}, {qb['q3']:.4f}]"
                f"{qc['median']:>12.4f} [{qc['q1']:.4f}, {qc['q3']:.4f}]"
                f"{change:>+9.1%}  {result} (bound {metric.bound:.0%})"
            )
        deltas = []
        for key, value in c.get("per_layer", {}).items():
            if key.endswith(".self_share") and key in b.get("per_layer", {}):
                deltas.append((value - b["per_layer"][key], key, b["per_layer"][key], value))
        if deltas:
            lines.append("   self_share deltas (largest first):")
        for delta, key, before, after in sorted(deltas, key=lambda d: -abs(d[0])):
            layer = key.split(".")[0]
            expected = name in LAYER_MOVES[layer]["workloads"]
            lines.append(f"   {key:<22}{delta:>+9.4f}  ({before:.4f} -> {after:.4f})"
                         + ("" if expected or abs(delta) < 0.01
                            else "  [layer not expected to matter here]"))
    return lines, verdicts


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: compare.py BASE.json CANDIDATE.json", file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        base = json.load(fh)
    with open(argv[1]) as fh:
        cand = json.load(fh)
    lines, verdicts = compare(base, cand)
    print("\n".join(lines))
    counts = {v: verdicts.count(v) for v in ("worse", "better", "same", "unresolved")}
    print("verdicts: " + ", ".join(f"{count} {v}" for v, count in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
