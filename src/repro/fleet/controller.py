"""The fleet controller: defrag-as-a-service over N simulated volumes.

Each scheduler *tick* the controller:

1. rolls the fleet-wide migration budget window,
2. admits queued (triggered) volumes up to the concurrent-job cap,
3. marches every volume through its tick window of virtual time —
   volumes with a running job co-schedule foreground traffic and the
   defrag actor on the shared device via
   :func:`repro.sim.engine.run_concurrently` (real interference, like
   the paper's co-running experiments); job-less volumes just run their
   foreground loop,
4. retires finished/crashed jobs (starting their cooldown) and takes a
   fragmentation census that queues newly-triggered volumes for the
   *next* tick's admission pass.

Volumes never share a device, so ticks are independent per volume and
the march order is fixed (spec order) — with every random draw seed-keyed
the whole run is deterministic, which :func:`run_fleet` turns into a
byte-reproducible fleet fingerprint.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from ..obs import hooks as obs_hooks
from ..faults import hooks as fault_hooks
from ..faults.hooks import FaultPlane
from ..sim.engine import run_concurrently
from ..stats import nearest_rank
from .admission import AdmissionController, TickBudget
from .jobs import DefragJob, FAILED, RUNNING
from .report import FleetReport, TickRow
from .spec import FleetConfig, make_volume_specs
from .volume import Volume

if TYPE_CHECKING:  # the SLO plane loads only when a monitor is attached
    from .slo import FleetSlo


class FleetController:
    """Watches volumes, admits FragPicker jobs, enforces the budget.

    With an optional :class:`~repro.fleet.slo.FleetSlo` monitor attached
    (``repro fleet --slo``) every tick also feeds the SLO plane — fg
    read latencies, budget utilisation, above-trigger fraction — and a
    volume whose latency SLO fires a burn alert is promoted to the front
    of the admission queue; alerts land in the report's ``slo`` section.
    Without a monitor (the default) the run is byte-identical to before.
    """

    def __init__(
        self,
        config: FleetConfig,
        volumes: List[Volume],
        slo: Optional[FleetSlo] = None,
    ) -> None:
        self.config = config
        self.volumes = volumes
        self.by_name: Dict[str, Volume] = {v.spec.name: v for v in volumes}
        self.budget = TickBudget(config.budget_per_tick)
        self.admission = AdmissionController(config.max_jobs)
        self.slo = slo
        #: name -> first tick the volume is eligible to trigger again
        self.cooldown_until: Dict[str, int] = {}
        report_config = config.to_dict()
        if slo is not None:
            # gating changes scheduling: stamp it into the fingerprinted
            # config so gated and ungated documents never read as equals
            report_config["slo"] = slo.config_dict()
        self.report = FleetReport(
            config=report_config, volumes=len(volumes),
        )
        self._finished_jobs: List[DefragJob] = []

    # -- census --------------------------------------------------------

    def census(self) -> Dict[str, float]:
        """Sample every volume's mean extents-per-file at its own clock."""
        return {v.spec.name: v.frag_level() for v in self.volumes}

    def _queue_triggered(self, levels: Dict[str, float], tick: int) -> None:
        """Queue volumes above the trigger (respecting cooldown)."""
        for volume in self.volumes:
            name = volume.spec.name
            if levels[name] <= self.config.trigger:
                continue
            if tick < self.cooldown_until.get(name, 0):
                continue
            self.admission.request(name)

    # -- one tick ------------------------------------------------------

    def _build_job(self, name: str, tick: int) -> DefragJob:
        volume = self.by_name[name]
        with volume.scope():
            return DefragJob(volume, tick)

    def run_tick(self, tick: int) -> None:
        config = self.config
        self.budget.begin_tick()
        admitted = self.admission.admit(
            lambda name: self._build_job(name, tick)
        )
        jobs_running = len(self.admission.running)
        fg_before = sum(v.fg_ops for v in self.volumes)
        read_counts = (
            {v.spec.name: len(v.read_latencies) for v in self.volumes}
            if self.slo is not None else None
        )

        for volume in self.volumes:
            _, window_end = volume.window(tick)
            job = self.admission.running.get(volume.spec.name)
            # march inside the volume's obs scope: the engine's actor
            # events and any journal recovery read the live facade
            with volume.scope():
                if isinstance(job, DefragJob) and job.state == RUNNING:
                    contexts = run_concurrently(
                        {
                            "fg": volume.foreground_actor(
                                window_end, config.fg_ops_per_tick
                            ),
                            "defrag": job.actor(self.budget, window_end),
                        },
                        start=volume.now,
                        until=window_end,
                    )
                    end = max(ctx.now for ctx in contexts.values())
                    volume.now = max(volume.now, window_end, end)
                else:
                    volume.run_foreground(window_end, config.fg_ops_per_tick)

        for name, job in list(self.admission.running.items()):
            if isinstance(job, DefragJob) and job.state != RUNNING:
                self.admission.finish(name, failed=job.state == FAILED)
                self.cooldown_until[name] = tick + 1 + config.cooldown_ticks
                self._finished_jobs.append(job)

        levels = self.census()
        self._queue_triggered(levels, tick + 1)
        row = TickRow(
            tick=tick,
            volumes_above=sum(
                1 for level in levels.values() if level > config.trigger
            ),
            migrated_bytes=self.budget.spent_this_tick,
            jobs_running=jobs_running,
            jobs_admitted=len(admitted),
            jobs_waiting=len(self.admission.queue),
            fg_ops=sum(v.fg_ops for v in self.volumes) - fg_before,
        )
        self.report.ticks.append(row)
        self._mirror_tick(row)
        if self.slo is not None:
            latencies = {
                v.spec.name: v.read_latencies[read_counts[v.spec.name]:]
                for v in self.volumes
            }
            _, promote = self.slo.record_tick(
                tick, row, latencies, len(self.volumes)
            )
            for name in promote:
                if self.admission.promote(name):
                    self.slo.record_promotion(tick, name)

    # -- the whole run -------------------------------------------------

    def begin(self) -> None:
        """Initial census + trigger pass (before the first tick)."""
        levels = self.census()
        self.report.volumes_above_start = sum(
            1 for level in levels.values() if level > self.config.trigger
        )
        self._queue_triggered(levels, tick=0)

    def finish(self) -> FleetReport:
        """Close the budget window and finalise the report."""
        self.budget.close()
        self._finalize()
        return self.report

    def _finalize(self) -> None:
        report = self.report
        # abandon jobs still running when the last tick closes (their
        # partial migrations are already durable; the report says so)
        for name, job in sorted(self.admission.running.items()):
            if isinstance(job, DefragJob):
                job.abandon(job.volume.now)
                self._finished_jobs.append(job)
        report.jobs_admitted = self.admission.admitted
        report.jobs_completed = self.admission.completed
        report.jobs_failed = self.admission.failed
        report.jobs_still_running = len(self.admission.running)
        report.jobs_deferred_ticks = self.admission.deferred_ticks
        report.migrated_payload_bytes = self.budget.spent_total
        for job in self._finished_jobs:
            job_report = job.report
            report.defrag_read_bytes += job_report.read_bytes
            report.defrag_write_bytes += job_report.write_bytes
            report.ranges_migrated += job_report.ranges_migrated
            report.ranges_failed += job_report.ranges_failed
            report.retries += job_report.retries
            report.jobs_budget_blocked_ticks += job.blocked_ticks
            report.recovered_entries += job.recovered_entries
            report.journal_pending += len(job.picker.journal)
        latencies: List[float] = []
        for volume in self.volumes:
            latencies.extend(volume.read_latencies)
            report.fg_ops += volume.fg_ops
            report.fg_errors += volume.fg_errors
        report.fg_read_count = len(latencies)
        ordered = sorted(latencies)
        report.fg_read_p50_s = nearest_rank(ordered, 0.50)
        report.fg_read_p99_s = nearest_rank(ordered, 0.99)
        report.fg_read_mean_s = (
            sum(latencies) / len(latencies) if latencies else 0.0
        )
        report.fg_read_max_s = max(latencies, default=0.0)
        if report.ticks:
            report.volumes_above_end = report.ticks[-1].volumes_above
        if self.slo is not None:
            report.slo = self.slo.report_section()
        self._mirror_summary(latencies)
        self._harvest_volumes()

    def _harvest_volumes(self) -> None:
        """Merge every volume's telemetry into the ambient plane.

        Spec order, ``<volume>/`` track prefixes: every volume runs its
        own virtual clock, so its spans get their own Chrome trace rows
        instead of interleaving with the other volumes' on one row.
        """
        obs = obs_hooks.current()
        if not obs.enabled:
            return
        from ..obs import harvest

        for volume in self.volumes:
            if volume.obs is not None:
                harvest.TelemetrySnapshot.capture(volume.obs).merge_into(
                    obs, track_prefix=f"{volume.spec.name}/"
                )

    # -- observability mirroring ---------------------------------------

    def _mirror_tick(self, row: TickRow) -> None:
        obs = obs_hooks.current()
        if not obs.enabled:
            return
        now = max((v.now for v in self.volumes), default=0.0)
        obs.event(
            "fleet.tick", now, track="fleet",
            tick=row.tick, volumes_above=row.volumes_above,
            migrated_bytes=row.migrated_bytes,
            jobs_running=row.jobs_running, jobs_waiting=row.jobs_waiting,
        )
        registry = obs.registry
        registry.gauge("fleet.volumes_above").set(row.volumes_above)
        registry.gauge("fleet.jobs_running").set(row.jobs_running)
        registry.gauge("fleet.jobs_waiting").set(row.jobs_waiting)
        registry.counter("fleet.migrated_bytes").inc(row.migrated_bytes)
        registry.counter("fleet.fg_ops").inc(row.fg_ops)

    def _mirror_summary(self, latencies: List[float]) -> None:
        obs = obs_hooks.current()
        if not obs.enabled:
            return
        registry = obs.registry
        histogram = registry.histogram("fleet.fg_read_latency_s")
        for latency in latencies:
            histogram.observe(latency)
        registry.counter("fleet.jobs_admitted").inc(self.admission.admitted)
        registry.counter("fleet.jobs_completed").inc(self.admission.completed)
        registry.counter("fleet.jobs_failed").inc(self.admission.failed)
        registry.counter("fleet.jobs_deferred_ticks").inc(
            self.admission.deferred_ticks
        )


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def build_volumes(config: FleetConfig) -> List[Volume]:
    """Instantiate every volume of the fleet (setup is fault-free even
    when a storm is armed: the plane activates only for the run).

    When the ambient instrumentation is armed, each volume is built
    under its own child instrumentation (mirroring the ambient ring
    sizes) so its layers record per-volume; the
    controller merges the per-volume planes back at the end of the run
    (:meth:`FleetController._harvest_volumes`).  Unarmed runs are
    untouched — no child facades, no scopes, the pre-harvest fast path.
    """
    ambient = obs_hooks.current()
    if not ambient.enabled:
        return [Volume(spec, config) for spec in make_volume_specs(config)]
    from ..obs import harvest

    volumes: List[Volume] = []
    for spec in make_volume_specs(config):
        child = harvest.child_of(ambient)
        with obs_hooks.use(child):
            volume = Volume(spec, config)
        volume.obs = child
        volumes.append(volume)
    return volumes


def run_fleet(
    config: FleetConfig,
    slo: Optional[FleetSlo] = None,
) -> FleetReport:
    """Build the fleet, run the scheduler, return the SLO report.

    With ``config.faults`` set, the seeded fleet storm from
    :meth:`FleetConfig.fault_plan` is installed around volume
    construction (layers capture the plane then) but activated only
    after setup, so faults hit the run — including one mid-migration
    power-off that must recover through the journal — never the build.

    ``slo`` attaches a :class:`~repro.fleet.slo.FleetSlo` monitor (burn
    alerts + admission gating).

    With the ambient instrumentation armed, every volume records into
    its own child plane (:func:`build_volumes`), merged back per volume
    when the run finishes.
    """
    if not config.faults:
        return _run(config, slo=slo)
    plane = FaultPlane(config.fault_plan())
    with fault_hooks.use(plane):
        return _run(config, plane, slo=slo)


def _run(
    config: FleetConfig,
    plane: Optional[FaultPlane] = None,
    slo: Optional[FleetSlo] = None,
) -> FleetReport:
    volumes = build_volumes(config)
    for volume in volumes:
        volume.sampler.attach()
    if plane is not None:
        plane.activate()
    try:
        controller = FleetController(config, volumes, slo=slo)
        controller.begin()
        for tick in range(config.ticks):
            controller.run_tick(tick)
        return controller.finish()
    finally:
        if plane is not None:
            plane.deactivate()
        for volume in volumes:
            volume.close()
