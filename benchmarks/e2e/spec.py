"""The pinned end-to-end workloads and the benchmark's metric tables.

Each workload is one call into the library entry point a CLI verb uses
(``repro replay``, ``repro run fig8``, ``repro fleet``).  A workload is
split the way the timing protocol needs it:

- ``prepare(seed, workdir)`` runs once per invocation in ``run.py``'s
  process and makes the seeded inputs (the replay corpora);
- ``setup(params)`` runs in the fresh repetition process before the
  timer starts and returns the zero-argument call that is timed;
- ``outcome(result)`` turns the call's result into a JSON document
  after the timer stops, and ``check``/``hashed``/``counts`` read only
  that document, so the tests can feed them hand-edited documents.

Only simulated statistics are hashed: obs histogram summaries and
percentiles are left out of every fingerprint, so work on quantiles or
percentile code does not re-pin the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

#: the seed ``expected.json`` pins and ``run.py`` uses by default
DEFAULT_SEED = 7
#: host seconds of timed repetitions per workload (BENCHMARK.json's
#: ``run_seconds``); with ~1-2 s repetitions this gives 8-12 samples
DEFAULT_SECONDS = 20
#: fewest timed repetitions per workload, whatever ``--seconds`` says
MIN_REPS = 5

#: ``repro`` subpackages reported as layers; everything else is ``other``
LAYERS = ("fs", "block", "device", "core", "tools", "workloads", "replay",
          "fleet", "sim", "obs", "faults", "trace")
OTHER = "other"
ALL_LAYERS = LAYERS + (OTHER,)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                     # "lower" or "higher"
    bound: Optional[float] = None   # end-to-end only: allowed relative worsening


#: end-to-end metrics: medians over the timed repetitions of one run.
#: Both times are converted to a nominal host speed by a reference loop
#: sampled while they run (child.py), which divides out most of the
#: host's speed drift.  The bounds follow the measured 10-seed spreads
#: (README).
E2E = (
    Metric("wall_s", "s", "lower", 0.15),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mib", "MiB", "lower", 0.10),
)

#: reported with the e2e metrics but not bounded: the raw times move
#: ~20 % with the host's speed mode
INFO = (Metric("wall_raw_s", "s", "lower"), Metric("setup_raw_s", "s", "lower"))

#: exact counts read from the simulated results (0 where a workload does
#: not model the quantity); none of them should move any e2e metric
MODELLED = (
    Metric("fs.cache_hit_ratio", "ratio", "higher"),
    Metric("block.split_fanout_mean", "ratio", "lower"),
    Metric("device.write_amp", "ratio", "lower"),
    Metric("core.fp_write_ratio", "ratio", "lower"),
    Metric("core.stride_read_gain", "ratio", "higher"),
    Metric("fleet.jobs_completed", "count", "higher"),
    Metric("fleet.migrated_mib", "MiB", "higher"),
    Metric("faults.fg_errors", "count", "lower"),
)

#: per-layer metrics: one profiled repetition per workload
PER_LAYER = (
    tuple(Metric(f"{layer}.self_share", "ratio", "lower") for layer in ALL_LAYERS)
    + tuple(Metric(f"{layer}.calls_in", "count", "lower") for layer in ALL_LAYERS)
    + (Metric("fs.syscalls", "count", "lower"),
       Metric("profile_overhead", "ratio", "lower"))
    + MODELLED
)

#: which e2e metric a layer's host time should move, and on which
#: workloads (it should move nothing elsewhere)
LAYER_MOVES: Dict[str, Dict[str, Sequence[str]]] = {
    "fs": {"metrics": ("wall_s",), "workloads": ("replay_write", "replay_read")},
    "block": {"metrics": ("wall_s",), "workloads": ("replay_write",)},
    "device": {"metrics": ("wall_s",),
               "workloads": ("replay_read", "replay_write", "fig8_grid")},
    "obs": {"metrics": ("wall_s",),
            "workloads": ("replay_read", "replay_write", "fleet")},
    "faults": {"metrics": ("wall_s",), "workloads": ("fleet",)},
    "replay": {"metrics": ("wall_s",), "workloads": ("replay_read", "replay_write")},
    "fleet": {"metrics": ("wall_s", "peak_rss_mib"), "workloads": ("fleet",)},
    "sim": {"metrics": ("wall_s", "peak_rss_mib"), "workloads": ("fleet",)},
    "core": {"metrics": ("wall_s",), "workloads": ("fig8_grid", "fleet")},
    "tools": {"metrics": ("wall_s",), "workloads": ("fig8_grid", "fleet")},
    "trace": {"metrics": ("wall_s",), "workloads": ("fig8_grid", "fleet")},
    "workloads": {"metrics": ("wall_s",), "workloads": ("fig8_grid", "fleet")},
    # bench harness, par, types, stats: mostly the grid's experiment runner
    "other": {"metrics": ("wall_s",),
              "workloads": ("replay_read", "replay_write", "fig8_grid", "fleet")},
}

MIB = 1 << 20


def fingerprint(body: object) -> str:
    """sha256[:16] over canonical JSON (the repo's document convention)."""
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and the quartiles ``statistics.quantiles(n=4)`` gives."""
    if len(values) < 2:
        only = float(values[0]) if values else 0.0
        return {"median": only, "q1": only, "q3": only}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def _document_outcome(result) -> Dict[str, object]:
    """A replay or fleet result as its fingerprinted repro document."""
    return {"document": result.to_dict()}


# ----------------------------------------------------------------------
# replay_read / replay_write: one streaming replay of a seeded corpus
# ----------------------------------------------------------------------

#: corpus shapes (64 files x 8 MiB, TraceProfile defaults); op counts are
#: sized for ~1.5 s per repetition
REPLAY_PROFILES = {
    "replay_read": {"ops": 25_000, "read_fraction": 0.9,
                    "direct_fraction": 0.5, "sequential_fraction": 0.6},
    "replay_write": {"ops": 20_000, "read_fraction": 0.1,
                     "direct_fraction": 0.0, "sequential_fraction": 0.3,
                     "fsync_every": 16},
}


def _replay_prepare(name: str):
    def prepare(seed: int, workdir: str) -> Dict[str, object]:
        from repro.replay import TraceProfile, generate_trace

        path = os.path.join(workdir, f"{name}.bin")
        generate_trace(path, TraceProfile(seed=seed, **REPLAY_PROFILES[name]))
        return {"trace": path, "seed": seed}
    return prepare


def _replay_setup(params: Dict[str, object]) -> Callable[[], object]:
    from repro.replay import ReplayConfig, run_replay

    config = ReplayConfig(fs_type="ext4", device="flash", pacing="afap",
                          seed=int(params["seed"]))
    return lambda: run_replay(str(params["trace"]), config)


def _replay_check(outcome: Dict[str, object]) -> List[str]:
    from repro.replay import validate

    doc = outcome["document"]
    errors = []
    try:
        validate(doc)
    except ValueError as exc:
        errors.append(f"validate: {exc}")
    parse, rec = doc.get("parse", {}), doc.get("reconstruction", {})
    accounted = rec.get("ops", 0) + rec.get("dropped", 0) + rec.get("no_space", 0)
    if parse.get("records") != accounted:
        errors.append(f"parse.records {parse.get('records')} != ops + dropped "
                      f"+ no_space {accounted}")
    if not (doc.get("attribution") or {}).get("ok"):
        errors.append("attribution does not sum to the measured total")
    return errors


def _replay_hashed(outcome: Dict[str, object]) -> Dict[str, object]:
    doc = outcome["document"]
    return {key: doc.get(key) for key in
            ("parse", "reconstruction", "figures", "cache", "device_traffic")}


def _replay_counts(outcome: Dict[str, object]) -> Dict[str, float]:
    doc = outcome["document"]
    traffic, rec = doc["device_traffic"], doc["reconstruction"]
    written = traffic["write_bytes"] + traffic["meta_write_bytes"]
    return {
        "fs.cache_hit_ratio": doc["figures"]["cache_hit_ratio"],
        "block.split_fanout_mean": doc["split_fanout"].get("mean", 0.0),
        "device.write_amp": written / rec["bytes_written"] if rec["bytes_written"] else 0.0,
    }


# ----------------------------------------------------------------------
# fig8_grid: the paper's Figure 8 on Optane for all three filesystems
# ----------------------------------------------------------------------

#: file size of every grid cell (the paper uses 33 MiB; 4 MiB keeps the
#: FragPicker/Conv write ratios of the larger files at ~1.5 s)
GRID_FILE_MIB = 4
GRID_FS = ("ext4", "f2fs", "btrfs")
GRID_CELL_FIELDS = ("throughput_mbps", "defrag_write_mb", "defrag_read_mb",
                    "defrag_elapsed", "fragments_after")


def _grid_variants(fs_type: str):
    """The variants ``repro run fig8`` runs (btrfs adds Conv.-T)."""
    if fs_type == "btrfs":
        return ("original", "conv", "conv_t", "fragpicker", "fragpicker_b")
    return ("original", "conv", "fragpicker", "fragpicker_b")


def _grid_prepare(seed: int, workdir: str) -> Dict[str, object]:
    # the grid is the paper's fixed protocol: no input depends on the seed
    return {}


def _grid_setup(params: Dict[str, object]) -> Callable[[], object]:
    from repro.bench.experiments import synthetic_defrag

    def call():
        return {fs_type: synthetic_defrag.run(fs_type, "optane", GRID_FILE_MIB * MIB,
                                              _grid_variants(fs_type))
                for fs_type in GRID_FS}
    return call


def _grid_outcome(results) -> Dict[str, object]:
    return {"cells": {
        fs_type: {
            variant: {
                pattern: {key: getattr(cell, key) for key in GRID_CELL_FIELDS}
                for pattern, cell in per_pattern.items()
            }
            for variant, per_pattern in result.cells.items()
        }
        for fs_type, result in results.items()
    }}


def _grid_check(outcome: Dict[str, object]) -> List[str]:
    errors = []
    for fs_type, variants in outcome["cells"].items():
        for pattern, conv in variants["conv"].items():
            picked = variants["fragpicker"][pattern]["defrag_write_mb"]
            if picked > conv["defrag_write_mb"]:
                errors.append(f"{fs_type}/{pattern}: FragPicker wrote {picked} MB "
                              f"> Conv {conv['defrag_write_mb']} MB")
    return errors


def _grid_hashed(outcome: Dict[str, object]) -> Dict[str, object]:
    return outcome["cells"]


def _grid_counts(outcome: Dict[str, object]) -> Dict[str, float]:
    cells = outcome["cells"].values()
    fp_written = sum(c["defrag_write_mb"] for v in cells for c in v["fragpicker"].values())
    conv_written = sum(c["defrag_write_mb"] for v in cells for c in v["conv"].values())
    picked = sum(v["fragpicker"]["stride_read"]["throughput_mbps"] for v in cells)
    original = sum(v["original"]["stride_read"]["throughput_mbps"] for v in cells)
    return {
        "core.fp_write_ratio": fp_written / conv_written if conv_written else 0.0,
        "core.stride_read_gain": picked / original if original else 0.0,
    }


# ----------------------------------------------------------------------
# fleet: a serial 256-volume fleet under the fault storm with SLO gating
# ----------------------------------------------------------------------

FLEET_VOLUMES = 256
#: scheduler ticks (the config default is 12; 3 keeps a repetition under
#: 2 s, and seeds 1-10 all still complete jobs and recover one power-off)
FLEET_TICKS = 3
#: foreground sections hashed (read p50/p99 are percentiles: left out)
FLEET_FOREGROUND = ("ops", "errors", "read_count", "read_mean_s", "read_max_s")


def _fleet_prepare(seed: int, workdir: str) -> Dict[str, object]:
    return {"seed": seed}


def _fleet_setup(params: Dict[str, object]) -> Callable[[], object]:
    from repro.fleet import FleetConfig, FleetSlo, run_fleet

    config = FleetConfig(volumes=FLEET_VOLUMES, seed=int(params["seed"]),
                         ticks=FLEET_TICKS, faults=True)
    # the monitor `repro fleet --slo` builds (default latency objective)
    monitor = FleetSlo.for_config(config)
    return lambda: run_fleet(config, slo=monitor)


def _fleet_check(outcome: Dict[str, object]) -> List[str]:
    from repro.fleet import fingerprint as fleet_fingerprint

    doc = outcome["document"]
    errors = []
    if doc.get("fingerprint") != fleet_fingerprint(doc):
        errors.append("fleet document does not match its own fingerprint")
    migration, jobs = doc["migration"], doc["jobs"]
    budget = doc["config"].get("budget_per_tick")
    spent = max((row["migrated_bytes"] for row in doc["census"]["ticks"]), default=0)
    if not migration["budget_ok"] or (budget is not None and spent > budget):
        errors.append(f"a tick migrated {spent} bytes over the {budget} budget")
    # an entry stays pending only when its own recovery faulted, and the
    # job then reports that range as failed
    if jobs["journal_pending"] > migration["ranges_failed"]:
        errors.append(f"{jobs['journal_pending']} journal entries pending but "
                      f"only {migration['ranges_failed']} ranges failed")
    return errors


def _fleet_hashed(outcome: Dict[str, object]) -> Dict[str, object]:
    doc = outcome["document"]
    return {
        "jobs": doc["jobs"],
        "migration": doc["migration"],
        "census": doc["census"],
        "foreground": {key: doc["foreground"][key] for key in FLEET_FOREGROUND},
    }


def _fleet_counts(outcome: Dict[str, object]) -> Dict[str, float]:
    doc = outcome["document"]
    return {
        "fleet.jobs_completed": doc["jobs"]["completed"],
        "fleet.migrated_mib": doc["migration"]["payload_bytes"] / MIB,
        "faults.fg_errors": doc["foreground"]["errors"],
    }


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[int, str], Dict[str, object]]
    setup: Callable[[Dict[str, object]], Callable[[], object]]
    outcome: Callable[[object], Dict[str, object]]
    check: Callable[[Dict[str, object]], List[str]]
    hashed: Callable[[Dict[str, object]], object]
    counts: Callable[[Dict[str, object]], Dict[str, float]]

    def fingerprint(self, outcome: Dict[str, object]) -> str:
        return fingerprint(self.hashed(outcome))

    def modelled(self, outcome: Dict[str, object]) -> Dict[str, float]:
        """Every modelled count, 0 for those this workload does not model."""
        counts = self.counts(outcome)
        return {metric.name: float(counts.get(metric.name, 0.0)) for metric in MODELLED}


WORKLOADS: Dict[str, Workload] = {
    "replay_read": Workload(
        "replay_read",
        "read-heavy trace replay: page-cache probes and fills, readahead, "
        "extent lookups, split fragmented reads and flash read plans",
        _replay_prepare("replay_read"), _replay_setup, _document_outcome,
        _replay_check, _replay_hashed, _replay_counts,
    ),
    "replay_write": Workload(
        "replay_write",
        "write-heavy trace replay: delayed allocation at fsync, journal "
        "commits, writeback split at high fan-out and FTL programs",
        _replay_prepare("replay_write"), _replay_setup, _document_outcome,
        _replay_check, _replay_hashed, _replay_counts,
    ),
    "fig8_grid": Workload(
        "fig8_grid",
        "the paper's Figure 8: FragPicker analysis and migration, the "
        "conventional tools and the Optane model, all O_DIRECT",
        _grid_prepare, _grid_setup, _grid_outcome,
        _grid_check, _grid_hashed, _grid_counts,
    ),
    "fleet": Workload(
        "fleet",
        "many small volumes: aging, admission, tick-sliced jobs, the armed "
        "fault plane and the SLO plane on mixed devices",
        _fleet_prepare, _fleet_setup, _document_outcome,
        _fleet_check, _fleet_hashed, _fleet_counts,
    ),
}
