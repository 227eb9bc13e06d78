"""Seed-keyed fleet and volume specifications.

One fleet seed pins down *everything* about a fleet: how many volumes,
each volume's filesystem personality, device model, initial fragmentation
profile, file set, and workload mix — all derived through dedicated
string-seeded :class:`random.Random` streams so that adding a volume or
reordering construction never perturbs another volume's draws.  Two runs
with the same :class:`FleetConfig` therefore build byte-identical fleets,
which is what makes the fleet fingerprint reproducible end to end.

Device mix is the paper's modern-storage set (Optane, flash, MicroSD);
HDDs are excluded on purpose — Section 6 recommends against FragPicker on
seek-time devices, and a fleet scheduler should encode that policy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..constants import KIB, MIB
from ..core.migration import RetryPolicy
from ..errors import InvalidArgument
from ..faults.plan import FaultPlan

#: device models a fleet volume may use (no HDD: Section 6 policy)
DEVICE_MIX = ("optane", "flash", "microsd")

#: filesystem personalities in the mix
FS_MIX = ("ext4", "f2fs", "btrfs")

#: initial-layout profiles: (name, weight, pieces-per-file divisor);
#: a file of size S is built from S/divisor interleaved pieces, so
#: "heavy" volumes start well above the default admission trigger and
#: "clean" volumes start contiguous
PROFILES = (
    ("heavy", 0.35, 16),
    ("light", 0.35, 4),
    ("clean", 0.30, 1),
)

#: foreground workload kinds (every kind issues reads so the fleet's
#: p50/p99 foreground read-latency SLO is always measurable)
WORKLOADS = ("read_seq", "read_stride", "rw_mix")


@dataclass(frozen=True)
class FileSpec:
    """One file of a volume's initial layout."""

    path: str
    size: int
    #: interleave piece size; == size means a single contiguous extent
    piece: int
    #: dummy-file bytes written between pieces (opens gaps in the layout)
    gap: int


@dataclass(frozen=True)
class VolumeSpec:
    """Everything needed to (re)build one volume deterministically."""

    index: int
    name: str
    fs_type: str
    device: str
    profile: str
    workload: str
    files: Tuple[FileSpec, ...]
    workload_seed: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "fs_type": self.fs_type,
            "device": self.device,
            "profile": self.profile,
            "workload": self.workload,
            "files": [
                {"path": f.path, "size": f.size, "piece": f.piece, "gap": f.gap}
                for f in self.files
            ],
        }


#: per-volume device capacity
DEVICE_CAPACITY = 256 * MIB


@dataclass(frozen=True)
class FleetConfig:
    """The fleet simulator's knobs (all virtual-time; no wall clock)."""

    volumes: int = 64
    seed: int = 0
    #: scheduler ticks to run
    ticks: int = 12
    #: virtual seconds per tick
    tick_seconds: float = 0.25
    #: fleet-wide migration *payload* budget per tick, in bytes
    #: (the strict admission unit: a range of length L charges L bytes
    #: before it may migrate; None = unthrottled)
    budget_per_tick: Optional[int] = 4 * MIB
    #: global concurrent defrag-job cap
    max_jobs: int = 4
    #: admit a job when a volume's mean extents-per-file crosses this
    trigger: float = 4.0
    #: ticks a volume stays ineligible after its job finishes
    cooldown_ticks: int = 4
    #: foreground ops each volume issues per tick (bounds host work)
    fg_ops_per_tick: int = 32
    #: arm the seeded fleet fault storm (transient errors, latency
    #: spikes, and one mid-migration power-off) — see :meth:`fault_plan`
    faults: bool = False
    #: foreground workload override for *every* volume: one of
    #: :data:`WORKLOADS`, or ``trace:<path>`` to replay a captured trace
    #: (see :mod:`repro.replay.workload`); None keeps the seed-keyed mix
    workload: Optional[str] = None

    def __post_init__(self) -> None:
        if self.volumes < 0:
            raise InvalidArgument("volumes must be >= 0")
        if self.ticks < 1:
            raise InvalidArgument("ticks must be >= 1")
        if self.tick_seconds <= 0:
            raise InvalidArgument("tick_seconds must be positive")
        if self.budget_per_tick is not None and self.budget_per_tick <= 0:
            raise InvalidArgument("budget_per_tick must be positive (None = unlimited)")
        if self.max_jobs < 1:
            raise InvalidArgument("max_jobs must be >= 1")
        if self.trigger <= 0:
            raise InvalidArgument("trigger must be positive")
        if self.fg_ops_per_tick < 0:
            raise InvalidArgument("fg_ops_per_tick must be >= 0")
        if self.workload is not None and self.workload not in WORKLOADS:
            from ..replay.workload import parse_trace_workload
            if parse_trace_workload(self.workload) is None:
                raise InvalidArgument(
                    f"unknown workload {self.workload!r}: expected one of "
                    f"{', '.join(WORKLOADS)} or trace:<path>"
                )

    @classmethod
    def smoke(cls, volumes: int = 8, seed: int = 0, **overrides: object) -> "FleetConfig":
        """Small/fast variant for CI and tests."""
        defaults: Dict[str, object] = {
            "volumes": volumes,
            "seed": seed,
            "ticks": 6,
            "budget_per_tick": 2 * MIB,
            "max_jobs": 2,
            "fg_ops_per_tick": 16,
        }
        defaults.update(overrides)
        return cls(**defaults)  # type: ignore[arg-type]

    def to_dict(self) -> Dict[str, object]:
        """Canonical (fingerprinted) configuration."""
        document: Dict[str, object] = {
            "volumes": self.volumes,
            "seed": self.seed,
            "ticks": self.ticks,
            "tick_seconds": self.tick_seconds,
            "budget_per_tick": self.budget_per_tick,
            "max_jobs": self.max_jobs,
            "trigger": self.trigger,
            "cooldown_ticks": self.cooldown_ticks,
            "fg_ops_per_tick": self.fg_ops_per_tick,
            "device_capacity": DEVICE_CAPACITY,
            "faults": self.faults,
            "retry_attempts": RetryPolicy.attempts,
        }
        # conditional: absent when unset so pre-override fleet documents
        # keep their fingerprints byte-identical
        if self.workload is not None:
            document["workload"] = self.workload
        return document

    def fault_plan(self) -> FaultPlan:
        """The fleet storm: aimed at migration syscalls so foreground
        traffic sees only latency spikes, while defrag jobs exercise the
        retry/skip path and — once per run — a mid-migration power-off
        that must recover via the journal without stalling the fleet."""
        return (
            FaultPlan(self.seed)
            .latency_spike("device.submit", probability=0.01, max_fires=0)
            .io_error("fs.fallocate", probability=0.05, max_fires=0)
            .io_error("fs.write", probability=0.01, max_fires=0)
            .crash("fs.fallocate", after_ops=6)
        )


# ----------------------------------------------------------------------
# seed-keyed generation
# ----------------------------------------------------------------------

#: file sizes a volume may draw (block-aligned, >= one readahead unit)
_FILE_SIZES = (128 * KIB, 256 * KIB, 512 * KIB)


def _pick_weighted(rng: random.Random, options) -> str:
    """Weighted choice over (name, weight, ...) tuples."""
    roll = rng.random()
    acc = 0.0
    for option in options:
        acc += option[1]
        if roll < acc:
            return option
    return options[-1]


def volume_names(config: FleetConfig) -> List[str]:
    """Every volume's name, in volume (spec) order."""
    return [f"vol{index:04d}" for index in range(config.volumes)]


def make_volume_specs(config: FleetConfig) -> List[VolumeSpec]:
    """Derive every volume's spec from the one fleet seed.

    Volume 0 is always a ``heavy`` profile so any non-empty fleet has at
    least one volume above the default trigger — the smallest fleets still
    exercise the admission path.
    """
    specs: List[VolumeSpec] = []
    for index, name in enumerate(volume_names(config)):
        rng = random.Random(f"repro.fleet:{config.seed}:vol:{index}")
        fs_type = rng.choice(FS_MIX)
        device = rng.choice(DEVICE_MIX)
        profile = _pick_weighted(rng, PROFILES) if index else PROFILES[0]
        # the choice is always drawn so an override never perturbs this
        # volume's later draws (file count/sizes share the stream)
        workload = rng.choice(WORKLOADS)
        if config.workload is not None:
            workload = config.workload
        files = []
        for fi in range(rng.randint(3, 5)):
            size = rng.choice(_FILE_SIZES)
            piece = max(4 * KIB, size // profile[2])
            gap = 0 if profile[2] == 1 else 16 * KIB
            files.append(FileSpec(
                path=f"/{name}/f{fi}", size=size, piece=piece, gap=gap,
            ))
        specs.append(VolumeSpec(
            index=index,
            name=name,
            fs_type=fs_type,
            device=device,
            profile=profile[0],
            workload=workload,
            files=tuple(files),
            workload_seed=f"repro.fleet:{config.seed}:wl:{index}",
        ))
    return specs
