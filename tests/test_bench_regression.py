"""BENCH document persistence and the component-level regression gate."""

import json

import pytest

from repro import cli
from repro.bench.suite import build_document
from repro.doc import BENCH, digest

CONFIG = {"smoke": True, "synthetic": {"devices": ["optane"]}, "seed": 42}


def _document(label="base", throughput=100.0, device_service=0.2, fanout_mean=4.0):
    figures = {
        "synthetic_ext4_optane": {
            "original:seq_read": {
                "throughput_mbps": throughput,
                "split_fanout": {"count": 64, "mean": fanout_mean,
                                 "p95": fanout_mean * 2, "max": 33.0},
                "attribution": {
                    "schema": "repro.obs.attribution/v1",
                    "total_s": device_service + 0.05,
                    "syscalls": 64,
                    "components_s": {
                        "fs_cpu": 0.01, "kernel_queue": 0.0, "kernel_cpu": 0.02,
                        "split_cost": 0.02, "device_queue": 0.0,
                        "device_service": device_service, "device_penalty": 0.0,
                    },
                    "residual_s": 0.0,
                    "ok": True,
                },
            },
        },
    }
    return build_document(label, CONFIG, figures)


def test_fingerprint_is_stable_and_config_sensitive():
    a = digest({"seed": 42, "devices": ["optane", "hdd"]})
    b = digest({"devices": ["optane", "hdd"], "seed": 42})
    assert a == b  # key order is canonicalised
    c = digest({"seed": 43, "devices": ["optane", "hdd"]})
    assert a != c
    assert len(a) == 16


def test_identical_documents_compare_clean():
    comparison = BENCH.compare(_document(), _document(label="again"))
    assert comparison.ok
    assert comparison.findings  # values were actually compared
    assert not comparison.warnings


def test_direction_aware_regressions():
    base = _document()
    # throughput DOWN 15% -> regression
    slower = _document(label="cand", throughput=85.0)
    comparison = BENCH.compare(base, slower, threshold=0.10)
    assert [f.metric for f in comparison.regressions] == ["throughput_mbps"]
    # throughput UP 15% -> improvement, not a regression
    faster = _document(label="cand", throughput=115.0)
    assert BENCH.compare(base, faster, threshold=0.10).ok
    # component seconds UP 20% -> regression
    costlier = _document(label="cand", device_service=0.24)
    comparison = BENCH.compare(base, costlier, threshold=0.10)
    assert [f.metric for f in comparison.regressions] == [
        "attribution.device_service"
    ]
    # component seconds DOWN -> fine
    cheaper = _document(label="cand", device_service=0.16)
    assert BENCH.compare(base, cheaper, threshold=0.10).ok
    # fan-out mean UP -> regression (fragmentation crept back in)
    refragmented = _document(label="cand", fanout_mean=5.0)
    comparison = BENCH.compare(base, refragmented, threshold=0.10)
    assert [f.metric for f in comparison.regressions] == ["split_fanout.mean"]


def test_small_drift_below_threshold_passes():
    base = _document()
    wobble = _document(label="cand", throughput=95.5, device_service=0.209)
    assert BENCH.compare(base, wobble, threshold=0.10).ok


def test_mismatched_fingerprints_warn():
    base = _document()
    other = build_document(
        "cand", {"seed": 7}, base["figures"]
    )
    comparison = BENCH.compare(base, other)
    assert any("fingerprint" in w for w in comparison.warnings)


def test_missing_figure_and_variant_warn():
    base = _document()
    empty = build_document("cand", CONFIG, {})
    comparison = BENCH.compare(base, empty)
    assert comparison.ok  # nothing comparable, nothing regressed
    assert any("missing" in w for w in comparison.warnings)


def test_cli_compare_exit_codes(tmp_path, capsys):
    base_path = tmp_path / "BENCH_base.json"
    cand_path = tmp_path / "BENCH_cand.json"
    BENCH.save(str(base_path), _document())

    # injected 15% throughput regression -> exit 1
    BENCH.save(str(cand_path), _document(label="cand", throughput=85.0))
    code = cli.main(["bench", "--compare", str(base_path), str(cand_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out and "throughput_mbps" in out

    # --warn-only downgrades it to exit 0
    code = cli.main(["bench", "--compare", str(base_path), str(cand_path),
                     "--warn-only"])
    assert code == 0

    # 5% drift under a 10% threshold -> exit 0
    BENCH.save(str(cand_path), _document(label="cand", throughput=95.0))
    code = cli.main(["bench", "--compare", str(base_path), str(cand_path)])
    assert code == 0

    # a tighter threshold flags the same drift
    code = cli.main(["bench", "--compare", str(base_path), str(cand_path),
                     "--threshold", "0.03"])
    assert code == 1


def test_cli_bench_smoke_writes_schema_versioned_document(tmp_path, capsys):
    bench_path = tmp_path / "BENCH_ci.json"
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    prom_path = tmp_path / "metrics.prom"
    code = cli.main(["bench", "--smoke", "--label", "ci",
                     "--json", str(bench_path), "--trace", str(trace_path),
                     "--metrics-json", str(metrics_path),
                     "--prom", str(prom_path)])
    assert code == 0
    document = BENCH.load(str(bench_path))
    assert document["schema"] == BENCH.schema
    assert document["label"] == "ci"
    assert document["fingerprint"] == digest(
        document["config"]
    )
    # every captured variant's attribution satisfies the invariant
    checked = 0
    for figure in document["figures"].values():
        for summary in figure.values():
            attribution = summary.get("attribution")
            if attribution is None:
                continue
            assert attribution["ok"] is True
            attributed = sum(attribution["components_s"].values())
            assert attributed == pytest.approx(attribution["total_s"], rel=0.01)
            checked += 1
    assert checked >= 4
    # the Chrome trace rides along, with the fragmentation timeline
    trace = json.loads(trace_path.read_text())
    assert trace["fragTimeline"]["schema"] == "repro.obs.fragtimeline/v1"
    assert any(e.get("ph") == "C" for e in trace["traceEvents"])
    # the armed registry's two exports parse
    metrics = json.loads(metrics_path.read_text())
    samples = dict(line.rsplit(" ", 1) for line in prom_path.read_text().splitlines()
                   if not line.startswith("#"))
    assert float(samples["attrib_device_service_s"]) == (
        metrics["attrib.device_service_s"]["value"]
    )
    out = capsys.readouterr().out
    assert "(total measured)" in out
    assert f"wrote metrics JSON to {metrics_path}" in out
    assert f"wrote Prometheus metrics to {prom_path}" in out
