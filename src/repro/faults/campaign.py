"""Seeded fault-injection campaigns and the survival report.

A campaign arms a probabilistic :class:`FaultPlan` — transient I/O errors,
torn writes, fallocate failures, device latency spikes, FIEMAP errors —
and runs FragPicker's migration under it.  Because every probabilistic
rule draws from a dedicated seeded RNG stream, the same seed reproduces
the same storm bit-for-bit: the survival report carries a fingerprint
hashing the fault fires, the defrag report, and the final file contents,
and two runs with equal seeds must produce equal fingerprints.

The campaign measures the graceful-degradation contract:

- transient faults are retried with bounded backoff (``RetryPolicy``);
- files whose retries are exhausted are skipped and reported, never
  silently corrupted;
- after the run an operator-level :meth:`MigrationJournal.recover` drains
  whatever a failed repair left pending, and the harness asserts every
  file is byte-identical to its pre-migration content.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from ..core import FragPicker
from ..core.report import DefragReport
from . import hooks as fault_hooks
from .crashpoints import TOOLS, build_scenario, crash_sweep, _run_quietly
from .plan import FaultPlan


@dataclass(frozen=True)
class CampaignConfig:
    """Where a storm blows: its seed, stack and file set (:meth:`plan`
    fixes how hard)."""

    seed: int = 0
    device: str = "optane"
    fs_type: str = "ext4"
    files: int = 4

    def plan(self) -> FaultPlan:
        """Compile the storm into a fault plan (unbounded-fire rules).

        The per-op fault probabilities (each rule gets its own RNG
        stream) are tuned so the default seed produces a storm that
        exercises retries without exhausting them."""
        return (
            FaultPlan(self.seed)
            .io_error("fs.write", probability=0.12, max_fires=0)
            .torn_write("fs.write", probability=0.08, max_fires=0)
            .io_error("fs.fallocate", probability=0.08, max_fires=0)
            .io_error("fs.fiemap", probability=0.04, max_fires=0)
            .latency_spike("device.submit", probability=0.12, max_fires=0)
        )


@dataclass
class CampaignResult:
    """What one seeded storm did, and whether the data survived it."""

    config: CampaignConfig
    report: DefragReport
    faults_injected: int
    by_site_kind: Dict[str, int]
    data_intact: bool
    pending_after_recovery: int
    fingerprint: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.config.seed,
            "device": self.config.device,
            "fs_type": self.config.fs_type,
            "faults_injected": self.faults_injected,
            "by_site_kind": dict(sorted(self.by_site_kind.items())),
            "retries": self.report.retries,
            "ranges_failed": self.report.ranges_failed,
            "files_skipped": sorted(self.report.failures),
            "data_intact": self.data_intact,
            "pending_after_recovery": self.pending_after_recovery,
            "fingerprint": self.fingerprint,
        }


def _fingerprint(plane: fault_hooks.FaultPlane, report: DefragReport,
                 contents: Dict[str, bytes]) -> str:
    """A digest over everything the seed is supposed to pin down."""
    digest = hashlib.sha256()
    for fire in plane.stats.fires:
        digest.update(
            f"{fire.rule_index}:{fire.kind}:{fire.site}:{fire.op}:"
            f"{fire.now:.9f}:{fire.torn_length}\n".encode()
        )
    digest.update(
        f"{report.retries}:{report.ranges_failed}:{sorted(report.failures)}\n".encode()
    )
    for path in sorted(contents):
        digest.update(path.encode())
        digest.update(hashlib.sha256(contents[path]).digest())
    return digest.hexdigest()[:16]


def run_campaign(config: Optional[CampaignConfig] = None) -> CampaignResult:
    """One seeded storm: arm the plan, migrate, recover, verify."""
    config = config if config is not None else CampaignConfig()
    plane = fault_hooks.FaultPlane(config.plan())
    with fault_hooks.use(plane):
        scenario = build_scenario(config.device, config.fs_type, files=config.files)
        before = scenario.contents()
        picker = FragPicker(scenario.fs)
        plane.activate()
        report = _run_quietly(lambda: picker.defragment_bypass(scenario.paths, now=scenario.now))
        # the storm has passed: operator-level recovery drains anything a
        # failed mid-run repair had to leave pending
        plane.deactivate()
        journal = picker.journal
        _, _recovery = journal.recover(scenario.fs, now=report.finished_at)
        after = scenario.contents()
    return CampaignResult(
        config=config,
        report=report,
        faults_injected=plane.stats.total,
        by_site_kind=dict(plane.stats.by_site_kind),
        data_intact=after == before,
        pending_after_recovery=len(journal),
        fingerprint=_fingerprint(plane, report, after),
    )


# ----------------------------------------------------------------------
# campaign series (many independent storms)
# ----------------------------------------------------------------------

@dataclass
class CampaignSeries:
    """N independent storms: trial ``t`` replays the campaign at
    ``base.seed + t``.

    Trials share no state and run in trial order; the series
    fingerprint hashes the per-trial fingerprints in that order.
    """

    base: CampaignConfig
    trials: List[CampaignResult]
    fingerprint: str

    @property
    def ok(self) -> bool:
        return all(
            t.data_intact and not t.pending_after_recovery for t in self.trials
        )

    @property
    def faults_injected(self) -> int:
        return sum(t.faults_injected for t in self.trials)

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.base.seed,
            "device": self.base.device,
            "fs_type": self.base.fs_type,
            "trials": len(self.trials),
            "faults_injected": self.faults_injected,
            "retries": sum(t.report.retries for t in self.trials),
            "files_skipped": sum(t.report.ranges_failed for t in self.trials),
            "data_intact": all(t.data_intact for t in self.trials),
            "trial_fingerprints": [t.fingerprint for t in self.trials],
            "fingerprint": self.fingerprint,
        }


def series_fingerprint(results: List[CampaignResult]) -> str:
    """Digest over the per-trial fingerprints, in trial order."""
    digest = hashlib.sha256()
    for result in results:
        digest.update(result.fingerprint.encode())
        digest.update(b"\n")
    return digest.hexdigest()[:16]


def run_campaign_series(
    config: Optional[CampaignConfig] = None,
    trials: int = 8,
) -> CampaignSeries:
    """Run ``trials`` independent storms (seed, seed+1, ...)."""
    config = config if config is not None else CampaignConfig()
    results = [
        run_campaign(replace(config, seed=config.seed + t))
        for t in range(trials)
    ]
    return CampaignSeries(
        base=config,
        trials=results,
        fingerprint=series_fingerprint(results),
    )


# ----------------------------------------------------------------------
# the `repro faults` survival report
# ----------------------------------------------------------------------

@dataclass
class SurvivalReport:
    """Crash sweeps + fault campaign, ready for the CLI."""

    sweeps: List[object] = field(default_factory=list)  # CrashSweepReport
    campaign: Optional[CampaignResult] = None
    series: Optional[CampaignSeries] = None

    @property
    def ok(self) -> bool:
        if not all(sweep.ok for sweep in self.sweeps):
            return False
        if self.campaign is not None:
            if not self.campaign.data_intact or self.campaign.pending_after_recovery:
                return False
        if self.series is not None and not self.series.ok:
            return False
        return True

    def text(self) -> str:
        lines = ["fault-injection survival report", "=" * 31, ""]
        lines.append("crash-point sweeps (kill at every syscall, recover, compare):")
        for sweep in self.sweeps:
            lines.append(f"  {sweep.summary()}")
        if self.campaign is not None:
            result = self.campaign
            lines.append("")
            lines.append(
                f"fault campaign (seed {result.config.seed} on "
                f"{result.config.fs_type}/{result.config.device}):"
            )
            lines.append(f"  faults injected : {result.faults_injected}")
            for key, count in sorted(result.by_site_kind.items()):
                lines.append(f"    {key:<28s} {count}")
            lines.append(f"  retries         : {result.report.retries}")
            lines.append(f"  files skipped   : {result.report.ranges_failed}")
            for path, reason in sorted(result.report.failures.items()):
                lines.append(f"    {path}: {reason}")
            lines.append(f"  data intact     : {'yes' if result.data_intact else 'NO'}")
            lines.append(f"  fingerprint     : {result.fingerprint}")
        if self.series is not None:
            series = self.series
            lines.append("")
            lines.append(
                f"campaign series ({len(series.trials)} trials, seeds "
                f"{series.base.seed}..{series.base.seed + len(series.trials) - 1}):"
            )
            lines.append(f"  faults injected : {series.faults_injected}")
            intact = sum(1 for t in series.trials if t.data_intact)
            lines.append(f"  trials intact   : {intact}/{len(series.trials)}")
            lines.append(f"  fingerprint     : {series.fingerprint}")
        lines.append("")
        lines.append(f"verdict: {'SURVIVED' if self.ok else 'DATA LOSS'}")
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "ok": self.ok,
            "sweeps": [sweep.to_dict() for sweep in self.sweeps],
            "campaign": self.campaign.to_dict() if self.campaign else None,
            "series": self.series.to_dict() if self.series else None,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def survival_report(
    seed: int = 0,
    devices: Sequence[str] = ("optane",),
    fs_type: str = "ext4",
    smoke: bool = False,
    trials: Optional[int] = None,
) -> SurvivalReport:
    """The full `repro faults` run.

    Crash points are swept on every device in ``devices``; the campaign
    runs on the first.  ``smoke`` keeps CI fast: FragPicker only, a
    small storm.  Otherwise both tools are swept on every device.
    """
    out = SurvivalReport()
    device = devices[0]
    tools = ("fragpicker",) if smoke else TOOLS
    for dev in devices:
        for tool in tools:
            out.sweeps.append(
                crash_sweep(device=dev, fs_type=fs_type, tool=tool, seed=seed)
            )
    files = 2 if smoke else 4
    out.campaign = run_campaign(
        CampaignConfig(seed=seed, device=device, fs_type=fs_type, files=files)
    )
    if trials:
        out.series = run_campaign_series(
            CampaignConfig(seed=seed, device=device, fs_type=fs_type, files=files),
            trials=trials)
    return out
