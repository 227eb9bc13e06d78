"""The ``repro replay`` pipeline and its fingerprinted document.

One replay run = one streaming pass: parse -> reconstruct -> measure.
The resulting ``REPLAY_<label>.json`` (schema ``repro.replay/v1``) is
canonical JSON fingerprinted the fleet way — everything in it derives
from virtual time and seeded draws, so the same trace + config produces
a byte-identical document, which is what ``benchmarks/smoke.py``
asserts.

The document carries the TraceTracker-motivated deltas: how the *live*
cache/readahead treated the replayed traffic (hit ratio, device traffic
vs payload) versus what the raw trace would have forced verbatim, plus
the per-layer latency attribution the obs plane measures at source.

The fingerprint, persistence and direction-aware compare are the REPLAY
:class:`~repro.doc.DocType`: throughput down = regression, cache hit
ratio down = regression, attribution component seconds up = regression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..constants import MIB
from ..device import make_device
from ..doc import REPLAY
from ..errors import InvalidArgument
from ..fs import make_filesystem
from ..obs import analysis as obs_analysis
from ..obs import hooks as obs_hooks
from ..obs.hooks import AttributionInstrumentation
from ..types import Record
from .formats import ParseStats, TraceReader, open_trace
from .reconstruct import (
    APP,
    DEFAULT_FANOUT,
    DEFAULT_FILE_CAP,
    PlacementPolicy,
    ReconstructionStats,
    Reconstructor,
)

#: document schema tag; bump on incompatible layout changes
SCHEMA = REPLAY.schema

fingerprint, compare = REPLAY.fingerprint, REPLAY.compare


@dataclass(frozen=True)
class ReplayConfig:
    """Everything one replay run depends on (fingerprinted)."""

    fs_type: str = "ext4"
    device: str = "flash"
    fmt: str = "auto"
    pacing: str = "afap"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.pacing not in ("afap", "trace"):
            raise InvalidArgument(f"unknown pacing {self.pacing!r}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "fs_type": self.fs_type,
            "device": self.device,
            "format": self.fmt,
            "pacing": self.pacing,
            "seed": self.seed,
            "file_cap": DEFAULT_FILE_CAP,
            "placement_fanout": DEFAULT_FANOUT,
        }


class ReplayResult(Record):
    """One streaming replay pass, measured."""

    __slots__ = _fields = (
        "config", "trace", "parse", "reconstruction", "elapsed_s", "cache_hits",
        "cache_misses", "device_read_bytes", "device_write_bytes",
        "device_read_commands", "device_write_commands", "meta_write_bytes",
        "split_fanout", "attribution",
    )

    def __init__(
        self,
        config: ReplayConfig,
        trace: str,
        parse: Optional[ParseStats] = None,
        reconstruction: Optional[ReconstructionStats] = None,
        elapsed_s: float = 0.0,
        cache_hits: int = 0,
        cache_misses: int = 0,
        device_read_bytes: int = 0,
        device_write_bytes: int = 0,
        device_read_commands: int = 0,
        device_write_commands: int = 0,
        meta_write_bytes: int = 0,
        split_fanout: Optional[Dict[str, float]] = None,
        attribution: Optional[Dict[str, object]] = None,
    ) -> None:
        self.config = config
        self.trace = trace  # basename, for the report header
        self.parse = parse if parse is not None else ParseStats()
        self.reconstruction = (reconstruction if reconstruction is not None
                               else ReconstructionStats())
        self.elapsed_s = elapsed_s
        self.cache_hits = cache_hits
        self.cache_misses = cache_misses
        #: device-level traffic the replayed workload generated
        self.device_read_bytes = device_read_bytes
        self.device_write_bytes = device_write_bytes
        self.device_read_commands = device_read_commands
        self.device_write_commands = device_write_commands
        #: metadata-commit traffic (journal/checkpoint writes during fsync)
        self.meta_write_bytes = meta_write_bytes
        self.split_fanout = split_fanout if split_fanout is not None else {}
        self.attribution = attribution

    # -- derived figures ------------------------------------------------

    @property
    def cache_hit_ratio(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def ops_per_vsec(self) -> float:
        return self.reconstruction.ops / self.elapsed_s if self.elapsed_s else 0.0

    @property
    def read_mbps(self) -> float:
        if not self.elapsed_s:
            return 0.0
        return self.reconstruction.bytes_read / self.elapsed_s / 1e6

    @property
    def read_amplification(self) -> float:
        """Device read bytes per payload read byte (cache hits and
        readahead push this below/above 1 — the re-simulated part)."""
        if not self.reconstruction.bytes_read:
            return 0.0
        return self.device_read_bytes / self.reconstruction.bytes_read

    # -- document -------------------------------------------------------

    def to_dict(self, label: str = "local") -> Dict[str, object]:
        doc: Dict[str, object] = {
            "schema": SCHEMA,
            "label": label,
            "trace": self.trace,
            "config": self.config.to_dict(),
            "parse": self.parse.to_dict(),
            "reconstruction": self.reconstruction.to_dict(),
            "figures": {
                "elapsed_s": self.elapsed_s,
                "ops_per_vsec": self.ops_per_vsec,
                "read_mbps": self.read_mbps,
                "cache_hit_ratio": self.cache_hit_ratio,
                "read_amplification": self.read_amplification,
            },
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
            },
            "device_traffic": {
                "read_bytes": self.device_read_bytes,
                "write_bytes": self.device_write_bytes,
                "read_commands": self.device_read_commands,
                "write_commands": self.device_write_commands,
                "meta_write_bytes": self.meta_write_bytes,
            },
            "split_fanout": dict(self.split_fanout),
        }
        if self.attribution is not None:
            doc["attribution"] = self.attribution
        doc["fingerprint"] = REPLAY.fingerprint(doc)
        return doc

    @property
    def fingerprint(self) -> str:
        return str(self.to_dict()["fingerprint"])

    # -- rendering ------------------------------------------------------

    def text(self) -> str:
        parse, rec = self.parse, self.reconstruction
        lines = [
            "trace replay report",
            "=" * 19,
            "",
            f"trace          : {self.trace} ({self.config.fmt}), "
            f"pacing {self.config.pacing}",
            f"target         : {self.config.fs_type} on {self.config.device}, "
            f"placement seed {self.config.seed}",
            "",
            f"parsed         : {parse.records} records "
            f"({parse.malformed} malformed, {parse.zero_length} zero-length, "
            f"{parse.out_of_order} out-of-order, {parse.filtered} filtered)",
            f"reconstructed  : {rec.ops} ops ({rec.ops_read} reads, "
            f"{rec.ops_write} writes, {rec.ops_fsync} fsyncs) onto "
            f"{rec.files_created} files",
            f"  repairs      : {rec.clamped} clamped, {rec.realigned} realigned, "
            f"{rec.no_space} no-space skips, {rec.dropped} dropped",
            f"  backfill     : {rec.backfill_bytes / MIB:.2f} MiB materialized "
            "for reads beyond EOF",
            "",
            f"virtual elapsed: {self.elapsed_s:.4f} s  "
            f"({self.ops_per_vsec:,.0f} ops/s, {self.read_mbps:.1f} MB/s read)",
            f"live cache     : {self.cache_hits} hits / {self.cache_misses} "
            f"misses (hit ratio {self.cache_hit_ratio:.3f})",
            f"device traffic : {self.device_read_bytes / MIB:.2f} MiB read "
            f"(amplification {self.read_amplification:.3f}), "
            f"{self.device_write_bytes / MIB:.2f} MiB written "
            f"(+{self.meta_write_bytes / MIB:.2f} MiB metadata)",
        ]
        if self.split_fanout.get("count"):
            lines.append(
                f"request split  : mean fan-out {self.split_fanout['mean']:.2f}, "
                f"p95 {self.split_fanout['p95']:.0f}, "
                f"max {self.split_fanout['max']:.0f}"
            )
        lines.append("")
        lines.append(f"fingerprint: {self.fingerprint}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# the pipeline
# ----------------------------------------------------------------------

def run_replay(
    trace_path: str,
    config: Optional[ReplayConfig] = None,
    reader: Optional[TraceReader] = None,
    mapping: Optional[Dict[int, str]] = None,
) -> ReplayResult:
    """One streaming replay pass over ``trace_path``.

    Builds a fresh filesystem, arms a private attribution-only
    observability plane (for the per-layer attribution and the split
    fan-out; no per-command records), and pipes the reader straight
    into the reconstructor — the trace is never materialized.  ``reader`` lets
    tests inject a pre-configured parser; ``mapping`` pins file ids to
    existing paths (the round-trip experiment's hook).
    """
    config = config if config is not None else ReplayConfig()
    obs = AttributionInstrumentation()
    with obs_hooks.use(obs):
        device = make_device(config.device)
        fs = make_filesystem(config.fs_type, device)
        if reader is None:
            reader = open_trace(trace_path, config.fmt)
        policy = PlacementPolicy(seed=config.seed, mapping=mapping)
        reconstructor = Reconstructor(fs, policy, pacing=config.pacing)
        cache = fs.page_cache.stats
        hits0, misses0 = cache.hits, cache.misses
        start = 0.0
        finish = reconstructor.run(iter(reader), now=start)

        result = ReplayResult(
            config=config,
            trace=trace_path.rsplit("/", 1)[-1],
            parse=reader.stats,
            reconstruction=reconstructor.stats,
            elapsed_s=finish - start,
            cache_hits=cache.hits - hits0,
            cache_misses=cache.misses - misses0,
        )
        replayed = fs.tracer.tag(APP)
        result.device_read_bytes = replayed.read_bytes
        result.device_write_bytes = replayed.write_bytes
        result.device_read_commands = replayed.read_commands
        result.device_write_commands = replayed.write_commands
        result.meta_write_bytes = fs.tracer.tag("meta").write_bytes
        metrics = obs_analysis.delta_metrics(obs.registry, None)
        result.split_fanout = obs_analysis.histogram_summary(
            metrics, "block.split_fanout"
        )
        result.attribution = obs_analysis.attribute(metrics).to_dict()
    return result


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

#: required top-level sections and the counters inside them
_REQUIRED = {
    "parse": ("records", "malformed", "zero_length", "out_of_order"),
    "reconstruction": ("ops", "ops_read", "ops_write", "bytes_read",
                       "backfill_bytes", "clamped", "no_space"),
    "figures": ("elapsed_s", "ops_per_vsec", "cache_hit_ratio"),
    "cache": ("hits", "misses"),
    "device_traffic": ("read_bytes", "write_bytes"),
}


def validate(document: Dict[str, object]) -> None:
    """Schema check for CI: raises ``ValueError`` on a malformed doc."""
    if document.get("schema") != SCHEMA:
        raise ValueError(f"bad schema {document.get('schema')!r}")
    for section, keys in _REQUIRED.items():
        body = document.get(section)
        if not isinstance(body, dict):
            raise ValueError(f"missing section {section!r}")
        for key in keys:
            if key not in body:
                raise ValueError(f"missing {section}.{key}")
    expected = REPLAY.fingerprint(document)
    if document.get("fingerprint") != expected:
        raise ValueError(
            f"fingerprint mismatch: {document.get('fingerprint')} != {expected}"
        )

