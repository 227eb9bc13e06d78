"""Fleet SLO monitoring and admission gating (``repro fleet --slo``).

Wraps an :class:`~repro.obs.slo.SloPlane` around one fleet run: every
scheduler tick the controller feeds this monitor the tick's foreground
read latencies (fleet-wide *and* per volume), the budget utilisation,
and the above-trigger census fraction; the plane evaluates the closed
tick window and the monitor turns verdicts into scheduling pressure —
a volume whose own read-latency SLO fires a burn alert **jumps the
admission queue** (the controller promotes it to the queue front), and
every alert lands in the FLEET report's ``slo`` section.

Window geometry is one window per scheduler tick, so burn rates read
directly as "ticks of bad behaviour": a fast burn of 4 means this tick
spent budget four times faster than the target allows.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..obs.slo import SloPlane, SloSpec, build_document
from .spec import FleetConfig, volume_names

#: default foreground read-latency objective (per read, seconds) — sized
#: so a healthy mixed fleet complies and a fault storm's spikes do not
DEFAULT_LATENCY_SLO_S = 0.002


def fleet_specs(
    config: FleetConfig, latency_slo_s: float = DEFAULT_LATENCY_SLO_S
) -> List[SloSpec]:
    """The default fleet-level objectives for one run."""
    specs = [
        SloSpec(
            name="fg_read_latency",
            metric="fleet.fg_read_latency_s",
            threshold=latency_slo_s, objective="le", target=0.95,
            fast_windows=1, slow_windows=4, fast_burn=4.0, slow_burn=2.0,
        ),
        SloSpec(
            name="frag_backlog",
            metric="fleet.volumes_above_frac",
            threshold=0.25, objective="le", target=0.50,
            fast_windows=1, slow_windows=4, fast_burn=1.8, slow_burn=1.5,
        ),
    ]
    if config.budget_per_tick is not None:
        # saturated ticks mean the fleet is migration-starved
        specs.append(SloSpec(
            name="budget_saturation",
            metric="fleet.budget_util",
            threshold=0.99, objective="le", target=0.75,
            fast_windows=1, slow_windows=4, fast_burn=3.0, slow_burn=2.0,
        ))
    return specs


def volume_spec(name: str, latency_slo_s: float) -> SloSpec:
    """The per-volume gating objective (alert => jump the queue)."""
    return SloSpec(
        name=f"vol.{name}.read_latency",
        metric=f"vol.{name}.read_latency_s",
        threshold=latency_slo_s, objective="le", target=0.90,
        fast_windows=1, slow_windows=2, fast_burn=2.0, slow_burn=1.5,
    )


class FleetSlo:
    """One fleet run's SLO monitor: telemetry in, alerts + gating out."""

    def __init__(
        self,
        config: FleetConfig,
        latency_slo_s: float = DEFAULT_LATENCY_SLO_S,
    ) -> None:
        self.config = config
        self.latency_slo_s = latency_slo_s
        self._fleet_specs = fleet_specs(config, latency_slo_s)
        volume_specs = {
            name: volume_spec(name, latency_slo_s)
            for name in sorted(volume_names(config))
        }
        #: per-volume gating SLO name -> the volume its alerts promote
        self._volume_of: Dict[str, str] = {
            spec.name: name for name, spec in volume_specs.items()
        }
        self.plane = SloPlane(
            self._fleet_specs + list(volume_specs.values()),
            window=config.tick_seconds,
        )
        #: volumes promoted by gating, in promotion order (report evidence)
        self.promotions: List[Dict[str, object]] = []

    @classmethod
    def for_config(cls, config: FleetConfig) -> "FleetSlo":
        """The constructor under the name ``benchmarks/e2e/spec.py`` calls."""
        return cls(config)

    # -- per-tick evaluation -------------------------------------------

    def record_tick(
        self,
        tick: int,
        row,
        latencies: Dict[str, List[float]],
        volumes_total: int,
    ) -> Tuple[List[Dict[str, object]], List[str]]:
        """Evaluate one tick's window from that tick's telemetry.

        Returns ``(alerts fired this tick, volume names to promote)``.
        ``latencies`` maps volume name -> that volume's read latencies
        completed during this tick.
        """
        values: Dict[str, List[float]] = {}
        fleet_latencies: List[float] = []
        for name in sorted(latencies):
            values[f"vol.{name}.read_latency_s"] = latencies[name]
            fleet_latencies.extend(latencies[name])
        values["fleet.fg_read_latency_s"] = fleet_latencies
        budget = self.config.budget_per_tick
        if budget is not None:
            values["fleet.budget_util"] = [row.migrated_bytes / budget]
        if volumes_total:
            values["fleet.volumes_above_frac"] = [
                row.volumes_above / volumes_total
            ]
        fired = self.plane.evaluate(tick, values)
        promote: List[str] = []
        for alert in fired:
            volume = self._volume_of.get(alert["slo"])
            if volume is not None and volume not in promote:
                promote.append(volume)
        return fired, promote

    def record_promotion(self, tick: int, volume: str) -> None:
        self.promotions.append({"tick": tick, "volume": volume})

    # -- whole-run views -----------------------------------------------

    def fleet_summaries(self) -> Dict[str, Dict[str, object]]:
        """Fleet-level SLO summaries only (the report's ``slos`` table)."""
        return {
            spec.name: self.plane.evaluators[spec.name].summary()
            for spec in self._fleet_specs
        }

    def volume_alerts(self) -> int:
        """Total per-volume gating alerts fired over the run."""
        return sum(
            1 for row in self.plane.alerts if row["slo"] in self._volume_of
        )

    def config_dict(self) -> Dict[str, object]:
        """Gating marker folded into the report's config (fingerprinted)."""
        return {
            "latency_slo_s": self.latency_slo_s,
            "specs": [spec.name for spec in self._fleet_specs],
        }

    def report_section(self) -> Dict[str, object]:
        """The FLEET document's ``slo`` section."""
        return {
            "latency_slo_s": self.latency_slo_s,
            "slos": self.fleet_summaries(),
            "alerts": list(self.plane.alerts),
            "volume_alerts": self.volume_alerts(),
            "promotions": list(self.promotions),
        }

    def document(self, label: str, source: Dict[str, object]) -> Dict[str, object]:
        """The standalone fingerprinted ``repro.slo/v1`` document."""
        return build_document(label, source, self.plane)
