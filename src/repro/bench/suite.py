"""The ``repro bench`` suite: a scaled, instrumented sweep for regression
tracking.

Runs a deterministic subset of the paper's figures with the observability
plane enabled, and condenses each variant into the flat summary shape
the BENCH document type (:mod:`repro.doc`) compares:

- ``synthetic_<fs>_<device>`` — the Figure 8/9 grid, one cell per
  (variant, pattern), with per-window latency attribution and split
  fan-out;
- ``fileserver_<device>`` — Figure 11's grep cost (stored as GB/s so
  "higher is better" holds);
- ``obs_trace`` — the instrumented Fig. 10 protocol: phase throughputs,
  the before/after fan-out shift, and the whole-run attribution.

``--smoke`` shrinks file sizes, device list, and variant set to keep the
CI job in seconds; the configuration that produced a document is
fingerprinted into it, so ``repro bench --compare`` can refuse to read
apples against oranges.

``workers`` shards the per-device synthetic grids and the fileserver
figure across spawned processes (:mod:`repro.par`).  Each figure runs
under its own fresh :class:`Instrumentation` in **both** paths — the
serial loop calls the exact shard function inline — so the sharded
document is byte-identical to the serial one by construction (the
determinism tests assert it), and no figure's histograms or float
accumulation leak into the next.  The ``obs_trace`` figure stays in the
parent either way (the CLI exports its Chrome trace from the live
result).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..constants import MIB
from ..doc import BENCH, digest
from ..obs import harvest
from ..obs import hooks as obs_hooks
from ..obs.analysis import histogram_summary
from ..obs.hooks import Instrumentation


def suite_config(smoke: bool = False) -> Dict[str, object]:
    """The full parameterisation of one suite run (fingerprinted); the
    full run takes each figure's own defaults."""
    from .experiments import fig11_fileserver as fig11, obs_trace, synthetic_defrag

    if smoke:
        return {
            "smoke": True,
            "synthetic": {
                "fs_type": "ext4",
                "devices": ["optane", "hdd"],
                "file_size_mib": 6,
                "variants": ["original", "fragpicker_b"],
                "patterns": ["seq_read", "stride_read"],
            },
            "fileserver": {
                "device": fig11.DEVICE, "file_count": 12, "mean_size_mib": 1,
                "seed": fig11.SEED,
            },
            "obs_trace": {"smoke": True, "seed": obs_trace.SEED},
        }
    return {
        "smoke": False,
        "synthetic": {
            "fs_type": "ext4",
            "devices": ["optane", "flash", "hdd", "microsd"],
            "file_size_mib": synthetic_defrag.FILE_SIZE // MIB,
            "variants": ["original", "conv", "fragpicker", "fragpicker_b"],
            "patterns": ["seq_read", "stride_read", "seq_update", "stride_update"],
        },
        "fileserver": {
            "device": fig11.DEVICE, "file_count": fig11.FILE_COUNT,
            "mean_size_mib": fig11.MEAN_SIZE // MIB, "seed": fig11.SEED,
        },
        "obs_trace": {"smoke": False, "seed": obs_trace.SEED},
    }


def build_document(
    label: str,
    config: Dict[str, object],
    figures: Dict[str, Dict[str, Dict[str, object]]],
) -> Dict[str, object]:
    """Assemble a BENCH document: ``figures[figure][variant] -> summary``.

    Each variant summary is a flat dict that may carry ``throughput_mbps``
    (or other headline numbers), a ``split_fanout`` summary, and an
    ``attribution`` sub-document (``Attribution.to_dict()``).  The
    fingerprint hashes ``config``, so only like-for-like runs compare.
    """
    return {
        "schema": BENCH.schema,
        "label": label,
        "config": dict(config),
        "fingerprint": digest(config),
        "figures": figures,
    }


# ----------------------------------------------------------------------
# figure builders (shard units)
# ----------------------------------------------------------------------


def _synthetic_figure(syn: Dict[str, object], device: str) -> Dict[str, object]:
    """One device's Figure 8/9 grid, condensed to the flat summary."""
    from .experiments import synthetic_defrag

    result = synthetic_defrag.run(
        syn["fs_type"], device,
        file_size=syn["file_size_mib"] * MIB,
        variants=tuple(syn["variants"]),
        patterns=tuple(syn["patterns"]),
    )
    figure: Dict[str, Dict[str, object]] = {}
    for variant, per_pattern in result.cells.items():
        for pattern, cell in per_pattern.items():
            summary: Dict[str, object] = {
                "throughput_mbps": cell.throughput_mbps,
                "defrag_write_mb": cell.defrag_write_mb,
            }
            if cell.obs is not None:
                summary["split_fanout"] = cell.obs.fanout_summary()
                summary["attribution"] = cell.obs.attribution
            figure[f"{variant}:{pattern}"] = summary
    return figure


def _fileserver_figure(fsrv: Dict[str, object]) -> Dict[str, object]:
    """Figure 11's grep cost, condensed to the flat summary."""
    from .experiments import fig11_fileserver

    result = fig11_fileserver.run(
        fsrv["device"], file_count=fsrv["file_count"],
        mean_size=fsrv["mean_size_mib"] * MIB, seed=fsrv["seed"],
    )
    figure: Dict[str, Dict[str, object]] = {}
    for variant, cell in result.cells.items():
        summary = {
            "grep_gb_per_s": 1.0 / cell.grep_cost if cell.grep_cost else 0.0,
            "defrag_write_mb": cell.defrag_write_mb,
        }
        if cell.obs is not None:
            summary["split_fanout"] = cell.obs.fanout_summary()
            summary["attribution"] = cell.obs.attribution
        figure[variant] = summary
    return figure


def _bench_shard(payload: Tuple[str, Dict[str, object]]):
    """Worker entry: one figure under a fresh instrumentation.

    Every figure's numbers are per-variant windowed deltas, so a fresh
    registry per shard reproduces the serial figures exactly.  The
    registry snapshot rides back so the parent can merge worker-side
    counters into the ambient obs plane.
    """
    kind, config = payload
    obs = Instrumentation()
    with obs_hooks.use(obs):
        if kind == "fileserver":
            figure = _fileserver_figure(config["fileserver"])
        else:
            figure = _synthetic_figure(config["synthetic"], kind)
    return figure, harvest.TelemetrySnapshot.capture(obs)


def _merge_worker_snapshots(obs, snapshots) -> None:
    """Fold per-figure telemetry snapshots into the parent's obs plane.

    Full harvest merge in shard order: counters add, gauges keep the
    last shard's reading (with the cross-shard peak), histograms add
    bucket-wise, and worker spans/events land on per-shard tracks — so
    an armed ``--workers N`` bench exports the same plane as serial.
    """
    if not obs.enabled:
        return
    for index, snapshot in enumerate(snapshots):
        snapshot.merge_into(
            obs, track_prefix=harvest.shard_track_prefix(index)
        )


def run_suite(
    smoke: bool = False,
    label: str = "local",
    obs: Optional[Instrumentation] = None,
    workers: Optional[int] = None,
) -> Tuple[Dict[str, object], object]:
    """Run the suite; returns ``(bench_document, obs_trace_result)``.

    The trace result is returned separately so the CLI can also export
    the Chrome trace (spans + fragmentation timeline) from the same run.
    """
    from ..par import run_sharded
    from .experiments import fig11_fileserver, obs_trace, synthetic_defrag

    config = suite_config(smoke)
    figures: Dict[str, Dict[str, Dict[str, object]]] = {}
    if obs is None:
        obs = Instrumentation()

    syn = config["synthetic"]
    payloads = [(device, config) for device in syn["devices"]]
    payloads.append(("fileserver", config))
    # serial and parallel run the same shard function — per-figure
    # isolation either way, so the documents match by construction.
    # The shard fn manages its own instrumentation and returns its own
    # snapshots, merged below.
    sharded = run_sharded(_bench_shard, payloads, workers=workers)
    for (kind, _), (figure, _snapshot) in zip(payloads, sharded):
        key = (
            f"fileserver_{config['fileserver']['device']}"
            if kind == "fileserver" else f"synthetic_{syn['fs_type']}_{kind}"
        )
        figures[key] = figure
    _merge_worker_snapshots(obs, [snap for _, snap in sharded])

    # obs_trace manages its own instrumentation context (fresh registry),
    # which keeps its whole-run attribution self-contained
    trace_result = obs_trace.run(
        smoke=config["obs_trace"]["smoke"], seed=config["obs_trace"]["seed"]
    )
    figure = {}
    for phase in ("before", "after"):
        fanout = getattr(trace_result, f"fanout_{phase}")
        figure[phase] = {
            "ops_per_sec": trace_result.phase_ops[phase],
            "split_fanout": {
                "count": fanout.count,
                "mean": fanout.mean,
                "p95": fanout.quantile(0.95),
                "max": fanout.max_value,
            },
        }
    figure["overall"] = {
        "attribution": trace_result.attribution().to_dict(),
        "split_fanout": histogram_summary(
            trace_result.obs.registry, "block.split_fanout"
        ),
    }
    figures["obs_trace"] = figure

    document = build_document(label, config, figures)
    return document, trace_result

