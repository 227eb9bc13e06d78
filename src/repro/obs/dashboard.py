"""The live fleet health dashboard: plain text, byte-deterministic.

``repro fleet --watch N`` renders a frame every Nth scheduler tick and
on the final tick (N >= ticks: the final frame only): fleet tick rows,
burn-rate sparklines per SLO, and the firing-alert table.  Everything derives from virtual time, so a
frame for a given (config, tick) is byte-identical run to run — which is
what lets CI golden-test the dashboard like any other document.

Sparklines use the eight Unicode block elements; an empty series renders
as spaces.  Scaling is per-sparkline (min..max of the visible tail), so
shape is readable even when absolute ranges differ wildly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..constants import MIB

#: sparkline glyphs, lowest to highest
BARS = "▁▂▃▄▅▆▇█"

#: visible tail length of each sparkline
SPARK_WIDTH = 24


def sparkline(values: Sequence[float], width: int = SPARK_WIDTH) -> str:
    """Render the last ``width`` values as a block-element sparkline."""
    tail = list(values)[-width:]
    if not tail:
        return ""
    low = min(tail)
    span = max(tail) - low
    if span <= 0:
        # flat line: mid-height when non-zero, baseline when all-zero
        glyph = BARS[3] if low else BARS[0]
        return glyph * len(tail)
    top = len(BARS) - 1
    return "".join(
        BARS[int((value - low) / span * top + 0.5)] for value in tail
    )


class Frame:
    """Everything one dashboard frame shows (plain data, renderable)."""

    def __init__(
        self,
        tick: int,
        ticks_total: int,
        now: float,
        volumes: int,
        rows: Sequence[object],
        slo_summaries: Dict[str, Dict[str, object]],
        alerts: Sequence[Dict[str, object]],
        firing: Sequence[str],
        budget_per_tick: Optional[int] = None,
    ) -> None:
        self.tick = tick
        self.ticks_total = ticks_total
        self.now = now
        self.volumes = volumes
        self.rows = list(rows)
        self.slo_summaries = slo_summaries
        self.alerts = list(alerts)
        self.firing = list(firing)
        self.budget_per_tick = budget_per_tick


def render(frame: Frame) -> str:
    """One dashboard frame as plain text."""
    lines: List[str] = []
    head = (
        f"fleet health — tick {frame.tick + 1}/{frame.ticks_total}, "
        f"vt {frame.now:.2f}s, {frame.volumes} volumes"
    )
    lines.append(head)
    lines.append("─" * len(head))

    # -- SLO table -----------------------------------------------------
    if frame.slo_summaries:
        lines.append("")
        lines.append(
            f"  {'slo':<22} {'compliance':>10} {'target':>7} "
            f"{'budget':>8} {'burn f/s':>11}  {'state':<6} burn"
        )
        for name in sorted(frame.slo_summaries):
            summary = frame.slo_summaries[name]
            burn = summary.get("burn", [])
            state = "FIRING" if name in frame.firing else (
                "breach" if summary["breaches"] else "ok"
            )
            lines.append(
                f"  {name:<22} {summary['compliance']:>10.2%} "
                f"{summary['target']:>7.0%} "
                f"{summary['budget_remaining']:>+8.0%} "
                f"{summary['last_fast_burn']:>5.2f}/"
                f"{summary['last_slow_burn']:<5.2f}"
                f"  {state:<6} {sparkline(burn)}"
            )

    # -- alert table ---------------------------------------------------
    lines.append("")
    if frame.alerts:
        lines.append(f"  {len(frame.alerts)} burn-rate alert(s):")
        for row in frame.alerts[-8:]:
            lines.append(
                f"    [window {row['window']:>3}] {row['slo']}: "
                f"fast {row['fast_burn']:.2f} slow {row['slow_burn']:.2f} "
                f"({row['bad']}/{row['samples']} bad)"
            )
    else:
        lines.append("  no alerts fired")

    # -- fleet curves --------------------------------------------------
    if frame.rows:
        above = [float(r.volumes_above) for r in frame.rows]
        migrated = [r.migrated_bytes / MIB for r in frame.rows]
        running = [float(r.jobs_running) for r in frame.rows]
        waiting = [float(r.jobs_waiting) for r in frame.rows]
        lines.append("")
        lines.append(
            f"  above-trigger  {sparkline(above)}  now {above[-1]:.0f}"
        )
        budget = (
            f" (budget {frame.budget_per_tick / MIB:.2f})"
            if frame.budget_per_tick else ""
        )
        lines.append(
            f"  migrated MiB   {sparkline(migrated)}  "
            f"now {migrated[-1]:.2f}{budget}"
        )
        lines.append(
            f"  jobs running   {sparkline(running)}  now {running[-1]:.0f}"
        )
        lines.append(
            f"  jobs waiting   {sparkline(waiting)}  now {waiting[-1]:.0f}"
        )
        row = frame.rows[-1]
        lines.append("")
        lines.append(
            f"  tick {row.tick:>3}: {row.volumes_above} above trigger, "
            f"{row.migrated_bytes / MIB:.2f} MiB migrated, "
            f"{row.jobs_running} running / {row.jobs_waiting} waiting, "
            f"{row.fg_ops} fg ops"
        )
    return "\n".join(lines)
