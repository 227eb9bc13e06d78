"""The fleet SLO report: population-scale figures, not single-run bars.

Everything in here derives from virtual time and seeded draws, so the
canonical JSON document — and therefore its sha256 fingerprint — is
byte-identical run to run for the same :class:`FleetConfig`, with or
without the observability plane armed (the fleet's determinism guard).

The document's fingerprint, persistence and direction-aware compare are
the FLEET :class:`~repro.doc.DocType`: foreground latency going up is a
regression, foreground ops going down is a regression, volumes left
above the trigger going up is a regression.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from ..constants import MIB
from ..doc import FLEET
from ..types import Record

#: document schema tag; bump on incompatible layout changes
SCHEMA = FLEET.schema

fingerprint, save, load, compare = (
    FLEET.fingerprint, FLEET.save, FLEET.load, FLEET.compare
)


class TickRow(NamedTuple):
    """One scheduler tick's fleet-wide readings."""

    tick: int
    volumes_above: int
    migrated_bytes: int
    jobs_running: int
    jobs_admitted: int
    jobs_waiting: int
    fg_ops: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "tick": self.tick,
            "volumes_above": self.volumes_above,
            "migrated_bytes": self.migrated_bytes,
            "jobs_running": self.jobs_running,
            "jobs_admitted": self.jobs_admitted,
            "jobs_waiting": self.jobs_waiting,
            "fg_ops": self.fg_ops,
        }


class FleetReport(Record):
    """What one fleet run did, SLO-style."""

    __slots__ = _fields = (
        "config", "volumes", "ticks", "jobs_admitted", "jobs_completed", "jobs_failed",
        "jobs_still_running", "jobs_deferred_ticks", "jobs_budget_blocked_ticks",
        "recovered_entries", "journal_pending", "migrated_payload_bytes",
        "defrag_read_bytes", "defrag_write_bytes", "ranges_migrated", "ranges_failed",
        "retries", "fg_ops", "fg_errors", "fg_read_count", "fg_read_p50_s",
        "fg_read_p99_s", "fg_read_mean_s", "fg_read_max_s", "volumes_above_start",
        "volumes_above_end", "slo",
    )

    def __init__(
        self,
        config: Dict[str, object],
        volumes: int = 0,
        ticks: Optional[List[TickRow]] = None,
        jobs_admitted: int = 0,
        jobs_completed: int = 0,
        jobs_failed: int = 0,
        jobs_still_running: int = 0,
        jobs_deferred_ticks: int = 0,
        jobs_budget_blocked_ticks: int = 0,
        recovered_entries: int = 0,
        journal_pending: int = 0,
        migrated_payload_bytes: int = 0,
        defrag_read_bytes: int = 0,
        defrag_write_bytes: int = 0,
        ranges_migrated: int = 0,
        ranges_failed: int = 0,
        retries: int = 0,
        fg_ops: int = 0,
        fg_errors: int = 0,
        fg_read_count: int = 0,
        fg_read_p50_s: float = 0.0,
        fg_read_p99_s: float = 0.0,
        fg_read_mean_s: float = 0.0,
        fg_read_max_s: float = 0.0,
        volumes_above_start: int = 0,
        volumes_above_end: int = 0,
        slo: Optional[Dict[str, object]] = None,
    ) -> None:
        self.config = config
        self.volumes = volumes
        self.ticks = ticks if ticks is not None else []
        # jobs
        self.jobs_admitted = jobs_admitted
        self.jobs_completed = jobs_completed
        self.jobs_failed = jobs_failed
        self.jobs_still_running = jobs_still_running
        self.jobs_deferred_ticks = jobs_deferred_ticks
        self.jobs_budget_blocked_ticks = jobs_budget_blocked_ticks
        self.recovered_entries = recovered_entries
        self.journal_pending = journal_pending
        # migration traffic
        self.migrated_payload_bytes = migrated_payload_bytes
        self.defrag_read_bytes = defrag_read_bytes
        self.defrag_write_bytes = defrag_write_bytes
        self.ranges_migrated = ranges_migrated
        self.ranges_failed = ranges_failed
        self.retries = retries
        # foreground SLO
        self.fg_ops = fg_ops
        self.fg_errors = fg_errors
        self.fg_read_count = fg_read_count
        self.fg_read_p50_s = fg_read_p50_s
        self.fg_read_p99_s = fg_read_p99_s
        self.fg_read_mean_s = fg_read_mean_s
        self.fg_read_max_s = fg_read_max_s
        # fragmentation census
        self.volumes_above_start = volumes_above_start
        self.volumes_above_end = volumes_above_end
        # SLO monitor section (only when gating is armed; absent keeps old
        # documents byte-identical)
        self.slo = slo

    # -- budget compliance ---------------------------------------------

    @property
    def max_tick_migrated(self) -> int:
        return max((row.migrated_bytes for row in self.ticks), default=0)

    @property
    def budget_ok(self) -> bool:
        """Did any tick exceed the configured migration budget?"""
        budget = self.config.get("budget_per_tick")
        if budget is None:
            return True
        return self.max_tick_migrated <= int(budget)

    # -- document ------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "schema": SCHEMA,
            "config": dict(self.config),
            "volumes": self.volumes,
            "jobs": {
                "admitted": self.jobs_admitted,
                "completed": self.jobs_completed,
                "failed": self.jobs_failed,
                "still_running": self.jobs_still_running,
                "deferred_ticks": self.jobs_deferred_ticks,
                "budget_blocked_ticks": self.jobs_budget_blocked_ticks,
                "recovered_entries": self.recovered_entries,
                "journal_pending": self.journal_pending,
            },
            "migration": {
                "payload_bytes": self.migrated_payload_bytes,
                "read_bytes": self.defrag_read_bytes,
                "write_bytes": self.defrag_write_bytes,
                "ranges_migrated": self.ranges_migrated,
                "ranges_failed": self.ranges_failed,
                "retries": self.retries,
                "max_tick_migrated": self.max_tick_migrated,
                "budget_ok": self.budget_ok,
            },
            "foreground": {
                "ops": self.fg_ops,
                "errors": self.fg_errors,
                "read_count": self.fg_read_count,
                "read_p50_s": self.fg_read_p50_s,
                "read_p99_s": self.fg_read_p99_s,
                "read_mean_s": self.fg_read_mean_s,
                "read_max_s": self.fg_read_max_s,
            },
            "census": {
                "volumes_above_start": self.volumes_above_start,
                "volumes_above_end": self.volumes_above_end,
                "ticks": [row.to_dict() for row in self.ticks],
            },
        }
        if self.slo is not None:
            doc["slo"] = self.slo
        doc["fingerprint"] = FLEET.fingerprint(doc)
        return doc

    @property
    def fingerprint(self) -> str:
        return FLEET.fingerprint(self.to_dict())

    # -- rendering -----------------------------------------------------

    def text(self) -> str:
        config = self.config
        budget = config.get("budget_per_tick")
        budget_text = (
            "unthrottled" if budget is None else f"{budget / MIB:.2f} MiB/tick"
        )
        lines = [
            "fleet SLO report",
            "=" * 16,
            "",
            f"fleet          : {self.volumes} volumes, seed {config.get('seed')}, "
            f"{len(self.ticks)} ticks x {config.get('tick_seconds')}s",
            f"scheduler      : trigger {config.get('trigger')} extents/file, "
            f"cap {config.get('max_jobs')} jobs, budget {budget_text}",
            "",
            f"jobs           : {self.jobs_admitted} admitted, "
            f"{self.jobs_completed} completed, {self.jobs_failed} failed, "
            f"{self.jobs_still_running} still running",
            f"  deferred     : {self.jobs_deferred_ticks} volume-ticks queued "
            f"behind the cap, {self.jobs_budget_blocked_ticks} job-ticks "
            f"parked on a dry budget",
            f"  resilience   : {self.retries} retries, {self.ranges_failed} "
            f"ranges skipped, {self.recovered_entries} journal entries "
            f"replayed, {self.journal_pending} pending",
            f"migration      : {self.migrated_payload_bytes / MIB:.2f} MiB payload "
            f"({self.ranges_migrated} ranges), device traffic "
            f"{self.defrag_read_bytes / MIB:.2f} MiB read + "
            f"{self.defrag_write_bytes / MIB:.2f} MiB written",
            f"  budget       : max {self.max_tick_migrated / MIB:.2f} MiB in one tick "
            f"-> {'within budget' if self.budget_ok else 'BUDGET EXCEEDED'}",
            "",
            f"foreground SLO : {self.fg_ops} ops ({self.fg_errors} errors), "
            f"{self.fg_read_count} reads",
            f"  read latency : p50 {self.fg_read_p50_s * 1e3:.3f} ms, "
            f"p99 {self.fg_read_p99_s * 1e3:.3f} ms, "
            f"mean {self.fg_read_mean_s * 1e3:.3f} ms, "
            f"max {self.fg_read_max_s * 1e3:.3f} ms",
            "",
            f"fragmentation  : {self.volumes_above_start} volumes above trigger "
            f"at start -> {self.volumes_above_end} at end",
        ]
        if self.slo is not None:
            alerts = self.slo.get("alerts", [])
            promotions = self.slo.get("promotions", [])
            lines.append(
                f"SLO gating     : latency objective "
                f"{float(self.slo.get('latency_slo_s', 0.0)) * 1e3:.3f} ms, "
                f"{len(alerts)} burn alerts "
                f"({self.slo.get('volume_alerts', 0)} per-volume), "
                f"{len(promotions)} queue promotions"
            )
            for name, summary in sorted(self.slo.get("slos", {}).items()):
                lines.append(
                    f"  {name:<13}: compliance {summary.get('compliance', 0.0):.4f}, "
                    f"budget left {summary.get('budget_remaining', 0.0) * 100:.1f}%, "
                    f"{summary.get('alerts', 0)} alerts"
                )
        lines.extend([
            "",
            "  tick  above  migrated(MiB)  running  admitted  waiting  fg_ops",
        ])
        for row in self.ticks:
            lines.append(
                f"  {row.tick:>4}  {row.volumes_above:>5}  "
                f"{row.migrated_bytes / MIB:>13.2f}  {row.jobs_running:>7}  "
                f"{row.jobs_admitted:>8}  {row.jobs_waiting:>7}  {row.fg_ops:>6}"
            )
        lines.append("")
        lines.append(f"fingerprint: {self.fingerprint}")
        return "\n".join(lines)
