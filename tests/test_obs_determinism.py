"""Observability must never perturb the simulation (the Heisenberg guard).

One scaled experiment run twice — obs fully enabled (metrics, spans,
sampler-bearing paths) vs the null facade — must produce bit-identical
results: instrumentation reads the timeline, it never advances it.

The second guard is the harvest parity property: with obs armed, a
``--workers N`` run must export **byte-identical** metrics JSON,
Prometheus text, and Chrome traces to the serial run — worker-side
telemetry is captured per shard and merged in shard order, and the
serial path performs the same capture-merge dance.  The armed fleet,
whose volumes merge their per-volume planes the same way, must export
the same bytes on every run.
"""

import json

import pytest

from repro.bench.experiments import synthetic_defrag
from repro.constants import MIB
from repro.obs import export, hooks
from repro.obs.hooks import Instrumentation
from repro.obs.provenance import build_forest


@pytest.fixture(autouse=True)
def _restore_global_instrumentation():
    yield
    hooks.disable()


def _run_once(obs):
    with hooks.use(obs):
        return synthetic_defrag.run(
            "ext4", "flash",
            file_size=4 * MIB,
            variants=("original", "fragpicker_b"),
            patterns=("seq_read", "stride_read"),
        )


def test_enabling_obs_is_bit_identical():
    with_obs = _run_once(Instrumentation())
    without = _run_once(hooks.NullInstrumentation())
    assert set(with_obs.cells) == set(without.cells)
    for variant in with_obs.cells:
        for pattern in with_obs.cells[variant]:
            a = with_obs.cells[variant][pattern]
            b = without.cells[variant][pattern]
            # == (not approx): virtual time must not shift by one float ulp
            assert a.throughput_mbps == b.throughput_mbps, (variant, pattern)
            assert a.defrag_write_mb == b.defrag_write_mb
            assert a.defrag_read_mb == b.defrag_read_mb
            assert a.defrag_elapsed == b.defrag_elapsed
            assert a.fragments_after == b.fragments_after
    # and the instrumented run actually captured telemetry
    sample = with_obs.cells["fragpicker_b"]["seq_read"].obs
    assert sample is not None and sample.attribution is not None
    assert without.cells["fragpicker_b"]["seq_read"].obs is None


def test_arming_provenance_is_bit_identical():
    """Causal tracing reads the timeline too: minting pids and recording
    syscall→request→command edges must not move a single virtual-time
    float vs a fully disabled run."""
    obs = Instrumentation(provenance=True)
    armed = _run_once(obs)
    without = _run_once(hooks.NullInstrumentation())
    for variant in armed.cells:
        for pattern in armed.cells[variant]:
            a = armed.cells[variant][pattern]
            b = without.cells[variant][pattern]
            assert a.throughput_mbps == b.throughput_mbps, (variant, pattern)
            assert a.defrag_write_mb == b.defrag_write_mb
            assert a.defrag_read_mb == b.defrag_read_mb
            assert a.defrag_elapsed == b.defrag_elapsed
            assert a.fragments_after == b.fragments_after
    # the armed run actually recorded causal edges
    summary = build_forest(obs.spans).summary()
    assert summary["layer_crossing"] > 0
    assert summary["commands"] > 0


# ----------------------------------------------------------------------
# armed parity: exports must match byte for byte
# ----------------------------------------------------------------------

def _renderings(obs):
    return (
        export.metrics_json(obs.registry),
        export.prometheus_text(obs.registry),
        json.dumps(export.chrome_trace(obs.spans, obs.registry)),
    )


def test_armed_fleet_smoke_exports_byte_identical_run_twice():
    from repro.fleet.controller import run_fleet
    from repro.fleet.spec import FleetConfig

    def run():
        obs = Instrumentation()
        with hooks.use(obs):
            report = run_fleet(FleetConfig.smoke(volumes=4))
        return report, obs

    first_report, first_obs = run()
    second_report, second_obs = run()
    assert second_report.fingerprint == first_report.fingerprint
    assert _renderings(second_obs) == _renderings(first_obs)
    # the merged plane is populated: per-volume tracks, fleet counters
    metrics = first_obs.registry.to_dict()
    assert metrics["fleet.jobs_completed"]["value"] >= 1
    assert metrics["obs.harvest.snapshots"]["value"] == 4  # one per volume
    tracks = {s.track for s in first_obs.spans.finished_spans()}
    assert any(track.startswith("vol0000/") for track in tracks)


def test_armed_bench_smoke_exports_byte_identical_serial_vs_workers():
    from repro.bench.suite import run_suite

    def run(workers):
        obs = Instrumentation()
        with hooks.use(obs):
            document, _ = run_suite(smoke=True, obs=obs, workers=workers)
        return document, obs

    serial_doc, serial_obs = run(None)
    par_doc, par_obs = run(2)
    assert json.dumps(par_doc, sort_keys=True) == json.dumps(
        serial_doc, sort_keys=True
    )
    assert _renderings(par_obs) == _renderings(serial_obs)
    # worker figures merged onto per-shard tracks
    metrics = serial_obs.registry.to_dict()
    assert metrics["obs.harvest.snapshots"]["value"] == 3  # 2 devices + fsrv
    assert metrics["block.requests"]["value"] > 0

