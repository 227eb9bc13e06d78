"""repro.fleet — defrag-as-a-service across a fleet of simulated volumes.

Scales the single-volume FragPicker reproduction up to operator scale: a
seed-keyed population of volumes (mixed filesystems, device models,
fragmentation profiles, workloads), a controller that watches per-volume
fragmentation and admits defrag jobs under a global concurrency cap and a
fleet-wide migration-bytes-per-tick budget, and an SLO report (foreground
read p50/p99, bytes migrated, volumes above threshold over time) with a
byte-reproducible fingerprint.
"""

from .admission import AdmissionController, TickBudget
from .controller import FleetController, build_volumes, run_fleet
from .jobs import DefragJob
from .report import FleetReport, TickRow, compare, fingerprint, load, save
from .slo import FleetSlo
from .spec import FileSpec, FleetConfig, VolumeSpec, make_volume_specs
from .volume import Volume

__all__ = [
    "AdmissionController",
    "TickBudget",
    "FleetController",
    "build_volumes",
    "run_fleet",
    "DefragJob",
    "FleetReport",
    "FleetSlo",
    "TickRow",
    "compare",
    "fingerprint",
    "load",
    "save",
    "FileSpec",
    "FleetConfig",
    "VolumeSpec",
    "make_volume_specs",
    "Volume",
]
