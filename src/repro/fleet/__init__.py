"""repro.fleet — defrag-as-a-service across a fleet of simulated volumes.

Scales the single-volume FragPicker reproduction up to operator scale: a
seed-keyed population of volumes (mixed filesystems, device models,
fragmentation profiles, workloads), a controller that watches per-volume
fragmentation and admits defrag jobs under a global concurrency cap and a
fleet-wide migration-bytes-per-tick budget, and an SLO report (foreground
read p50/p99, bytes migrated, volumes above threshold over time) with a
byte-reproducible fingerprint.
"""

from ..exports import lazy_exports

_EXPORTS = {
    "AdmissionController": "admission",
    "TickBudget": "admission",
    "FleetController": "controller",
    "build_volumes": "controller",
    "run_fleet": "controller",
    "DefragJob": "jobs",
    "FleetReport": "report",
    "TickRow": "report",
    "compare": "report",
    "fingerprint": "report",
    "load": "report",
    "save": "report",
    "FleetSlo": "slo",
    "FileSpec": "spec",
    "FleetConfig": "spec",
    "VolumeSpec": "spec",
    "make_volume_specs": "spec",
    "Volume": "volume",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
