#!/usr/bin/env python3
"""SLO tour: burn-rate alerting on one series and on a whole fleet.

Walks the judgment layer end to end:

1. A hand-built SLO over a synthetic latency series — watch the error
   budget burn and the multi-window alert fire only when the fast AND
   slow burns agree (one noisy window pages nobody).
2. The same engine judging a whole fleet: clean run vs seeded fault
   storm, same seed, compared direction-aware.

Everything runs in virtual time; both fleet documents are
byte-reproducible (note the fingerprints).

Run:  PYTHONPATH=src python examples/slo_tour.py
"""

import dataclasses

from repro.fleet import FleetConfig, FleetSlo, run_fleet
from repro.obs.slo import SloPlane, SloSpec, compare

#: sparkline glyphs, lowest to highest
BARS = "▁▂▃▄▅▆▇█"


def sparkline(values) -> str:
    """Render a series as block elements scaled to its own min..max."""
    low, span = min(values), max(values) - min(values)
    if span <= 0:
        return (BARS[3] if low else BARS[0]) * len(values)
    top = len(BARS) - 1
    return "".join(BARS[int((v - low) / span * top + 0.5)] for v in values)


def main() -> None:
    print("== 1. one SLO, by hand ==")
    # 90% of requests under 1 ms, judged over 0.25 s windows; the alert
    # needs the last window's burn >= 2x AND the 2-window mean >= 1.5x.
    spec = SloSpec(
        name="demo_latency", metric="lat_s", threshold=1e-3, objective="le",
        target=0.90, fast_windows=1, slow_windows=2,
        fast_burn=2.0, slow_burn=1.5,
    )
    plane = SloPlane([spec], window=0.25)
    # three calm windows, then a sustained latency regression
    for index, latencies in enumerate(
        [[0.4e-3] * 8, [0.5e-3] * 8, [0.6e-3] * 8,
         [2.0e-3] * 4 + [0.5e-3] * 4, [2.0e-3] * 6 + [0.5e-3] * 2]
    ):
        plane.evaluate(index, {spec.metric: latencies})
    summary = plane.summaries()[spec.name]
    print(f"  burn per window : {['%.1f' % b for b in summary['burn']]}")
    print(f"  burn sparkline  : {sparkline(summary['burn'])}")
    print(f"  compliance      : {summary['compliance']:.2%} "
          f"(target {spec.target:.0%})")
    print(f"  budget remaining: {summary['budget_remaining']:+.2%}")
    for alert in plane.alerts:
        print(f"  ALERT window {alert['window']}: "
              f"fast {alert['fast_burn']:.2f} slow {alert['slow_burn']:.2f} "
              f"({alert['bad']}/{alert['samples']} bad)")

    print("\n== 2. judging a fleet: clean vs fault storm ==")
    config = FleetConfig(volumes=16, seed=7, ticks=8)
    documents = {}
    for label in ("clean", "storm"):
        run_config = (config if label == "clean"
                      else dataclasses.replace(config, faults=True))
        monitor = FleetSlo(run_config)
        run_fleet(run_config, slo=monitor)
        documents[label] = monitor.document(
            label, {"kind": "fleet", "config": run_config.to_dict()})
        totals = monitor.fleet_summaries()
        fg = totals["fg_read_latency"]
        alerts = len(monitor.plane.alerts)
        print(f"  {label:5}: fg compliance {fg['compliance']:.2%}, "
              f"budget {fg['budget_remaining']:+.1%}, "
              f"{alerts} alert(s), fingerprint "
              f"{documents[label]['fingerprint']}")
    comparison = compare(documents["clean"], documents["storm"])
    regressions = [f for f in comparison.findings if f.regression]
    print(f"  storm vs clean: {len(regressions)} direction-aware "
          f"regression(s), e.g.")
    for finding in regressions[:3]:
        print(f"    {finding.variant} {finding.metric}: "
              f"{finding.baseline:.4g} -> {finding.candidate:.4g}")


if __name__ == "__main__":
    main()
