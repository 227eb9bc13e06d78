"""The command-line interface."""

import json

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_run_fast_experiment(capsys):
    assert main(["run", "splitting"]) == 0
    out = capsys.readouterr().out
    assert "cmds/syscall" in out


def test_run_with_options(capsys):
    assert main(["run", "splitting", "--device", "microsd"]) == 0
    assert "microsd" in capsys.readouterr().out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "nope"])


def test_obs_smoke_writes_valid_trace(capsys, tmp_path):
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    assert main(["trace", "--smoke", "--out", str(trace_path),
                 "--metrics-json", str(metrics_path)]) == 0
    out = capsys.readouterr().out
    assert "split fan-out" in out
    assert "fragpicker" in out
    doc = json.loads(trace_path.read_text())
    names = {e["name"] for e in doc["traceEvents"]}
    assert "fragpicker.defragment" in names and "fragpicker.migrate" in names
    metrics = json.loads(metrics_path.read_text())
    assert any(name.startswith("device.optane.command_latency") for name in metrics)


def test_obs_smoke_fanout_shifts_toward_one():
    from repro.bench.experiments import obs_trace
    result = obs_trace.run(smoke=True)
    assert result.fanout_before.count and result.fanout_after.count
    assert result.fanout_after.mean < result.fanout_before.mean
    assert result.defrag.ranges_migrated > 0


def test_faults_smoke_survives(capsys, tmp_path):
    json_path = tmp_path / "faults.json"
    assert main(["faults", "--smoke", "--json", str(json_path)]) == 0
    out = capsys.readouterr().out
    assert "SURVIVED" in out
    assert "crash points recovered" in out
    doc = json.loads(json_path.read_text())
    assert doc["ok"] is True
    assert doc["sweeps"][0]["recovered"] == doc["sweeps"][0]["points"]
    assert doc["campaign"]["data_intact"] is True


def test_faults_device_flag_sweeps_each_device(capsys, tmp_path):
    json_path = tmp_path / "faults.json"
    assert main(["faults", "--smoke", "--device", "optane", "flash",
                 "--json", str(json_path)]) == 0
    capsys.readouterr()
    doc = json.loads(json_path.read_text())
    assert [sweep["device"] for sweep in doc["sweeps"]] == ["optane", "flash"]
    assert all(s["recovered"] == s["points"] for s in doc["sweeps"])
    # the campaign runs on the first device, and the manifest names it
    assert doc["campaign"]["device"] == "optane"
    (manifest,) = (tmp_path / "ledger").glob("*.json")
    assert json.loads(manifest.read_text())["args"]["device"] == "optane"


def test_trace_smoke_writes_phase_spans_and_v2_summary(capsys, tmp_path):
    from repro.bench.experiments.obs_trace import PHASE_SPANS

    trace_path = tmp_path / "trace.json"
    summary_path = tmp_path / "summary.json"
    assert main(["trace", "--smoke", "--out", str(trace_path),
                 "--json", str(summary_path)]) == 0
    capsys.readouterr()
    # the Chrome trace holds one slice per phase span
    doc = json.loads(trace_path.read_text())
    slices = [e for e in doc["traceEvents"] if e["ph"] == "X" and e["name"] in PHASE_SPANS]
    assert sorted(e["name"] for e in slices) == sorted(PHASE_SPANS)
    summary = json.loads(summary_path.read_text())
    assert summary["schema"] == "repro.obs.trace/v2"
    durations = {e["name"]: e["dur"] / 1e6 for e in slices}
    assert summary["phases_s"] == pytest.approx(durations)
    first = min(e["ts"] for e in slices)
    last = max(e["ts"] + e["dur"] for e in slices)
    assert summary["wall_clock_s"] == pytest.approx((last - first) / 1e6)
    fanout = summary["split_fanout"]
    assert fanout["before"]["count"] and fanout["after"]["count"]
    assert fanout["before"]["mean"] > fanout["after"]["mean"]
    assert summary["attribution"]["ok"] is True


def test_trace_report_prints_phase_spans_and_attribution(capsys):
    assert main(["trace", "--smoke", "--out", ""]) == 0
    out = capsys.readouterr().out
    assert "phase span" in out and "fragpicker.defragment" in out
    assert "(residual)" in out  # the attribution table
    assert "split fan-out (cmds/syscall)  count  mean" in out
    for flag in (["--top", "3"], ["--flame", "f.txt"], ["--max-events", "8"]):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", *flag])


def test_trace_exits_1_when_attribution_fails(capsys, monkeypatch):
    from repro.obs.analysis import Attribution

    monkeypatch.setattr(Attribution, "check", lambda self, tolerance=0.01: False)
    assert main(["trace", "--smoke", "--out", ""]) == 1
    assert "attribution check FAILED" in capsys.readouterr().out


def test_every_experiment_registered():
    # one CLI entry per paper artifact + ablations + extensions
    import importlib

    assert len(EXPERIMENTS) >= 15
    for module, help_text, _ in EXPERIMENTS.values():
        experiment = importlib.import_module(f"repro.bench.experiments.{module}")
        assert callable(experiment.run)
        assert help_text


def test_fleet_smoke_runs_and_writes_document(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["fleet", "--smoke", "--volumes", "4", "--json"]) == 0
    out = capsys.readouterr().out
    assert "fleet SLO report" in out
    assert "p99" in out
    doc = json.loads((tmp_path / "FLEET_smoke.json").read_text())
    assert doc["schema"] == "repro.fleet/v1"
    assert doc["jobs"]["admitted"] >= 1
    assert doc["migration"]["budget_ok"] is True


def test_fleet_compare_flow(capsys, tmp_path):
    a = tmp_path / "FLEET_a.json"
    b = tmp_path / "FLEET_b.json"
    assert main(["fleet", "--smoke", "--volumes", "4", "--json", str(a)]) == 0
    assert main(["fleet", "--smoke", "--volumes", "4", "--json", str(b)]) == 0
    assert a.read_text() == b.read_text()  # byte-reproducible documents
    assert main(["fleet", "--compare", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "fleet compare" in out
    assert "0 regression(s)" in out


def test_fleet_exports_obs_artifacts(capsys, tmp_path):
    trace = tmp_path / "fleet_trace.json"
    prom = tmp_path / "fleet.prom"
    assert main(["fleet", "--smoke", "--volumes", "4", "--seed", "2",
                 "--json", str(tmp_path / "f.json"),
                 "--trace", str(trace), "--prom", str(prom)]) == 0
    doc = json.loads(trace.read_text())
    assert any(e["name"] == "fleet.tick" for e in doc["traceEvents"])
    assert "fleet.volumes_above" in doc["metrics"]
    assert any(line.startswith("fleet_") for line in prom.read_text().splitlines())


@pytest.mark.parametrize("verb", ["fleet", "faults"])
def test_verb_rejects_workers_flag(verb, capsys):
    # both verbs run serially: the fleet has one tick loop, and sharding
    # the fault sweeps lost to spawn overhead
    with pytest.raises(SystemExit) as excinfo:
        main([verb, "--smoke", "--workers", "2"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err


def test_slo_smoke_writes_valid_document(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["fleet", "--smoke", "--volumes", "8", "--seed", "0",
                 "--slo-json", "SLO_smoke.json"]) == 0
    out = capsys.readouterr().out
    assert "SLO report" in out
    assert "fg_read_latency" in out
    assert "burn-rate alert" in out
    from repro.obs import slo as obs_slo

    doc = json.loads((tmp_path / "SLO_smoke.json").read_text())
    assert doc["schema"] == "repro.slo/v1"
    obs_slo.validate(doc)
    assert doc["source"]["kind"] == "fleet"
    assert "fg_read_latency" in doc["slos"]


def test_slo_documents_are_byte_reproducible(tmp_path):
    a = tmp_path / "SLO_a.json"
    b = tmp_path / "SLO_b.json"
    for path in (a, b):
        assert main(["fleet", "--smoke", "--volumes", "8", "--seed", "0",
                     "--json", str(tmp_path / "f.json"),
                     "--slo-json", str(path)]) == 0
    assert a.read_text() == b.read_text()


#: SLO document fingerprints of ``--smoke --volumes 8 --seed 0``, clean
#: and under the fault storm; they predate the fold of the standalone
#: SLO verb into ``fleet --slo-json``, which must write the same bytes
SLO_SMOKE_FINGERPRINTS = {"clean": "43b174fe9adecf53",
                          "faults": "9be9c9afb7a0800d"}

#: FLEET document fingerprints of the same gated runs: they also pin the
#: admission promotions gating makes, which the SLO document leaves out
GATED_FLEET_FINGERPRINTS = {"clean": "545ee069d5a403b3",
                            "faults": "ad7aa5a1c3eb7b31"}


@pytest.mark.parametrize("storm", sorted(SLO_SMOKE_FINGERPRINTS))
def test_slo_smoke_fingerprints_are_pinned(storm, capsys, tmp_path):
    path = tmp_path / "SLO.json"
    extra = ["--faults"] if storm == "faults" else []
    assert main(["fleet", "--smoke", "--volumes", "8", "--seed", "0",
                 "--json", str(tmp_path / "f.json"),
                 "--slo-json", str(path)] + extra) == 0
    doc = json.loads(path.read_text())
    assert doc["fingerprint"] == SLO_SMOKE_FINGERPRINTS[storm]
    fleet = json.loads((tmp_path / "f.json").read_text())
    assert fleet["fingerprint"] == GATED_FLEET_FINGERPRINTS[storm]


def test_slo_prom_export(capsys, tmp_path):
    prom = tmp_path / "slo.prom"
    assert main(["fleet", "--smoke", "--volumes", "4", "--seed", "0",
                 "--json", str(tmp_path / "f.json"),
                 "--slo-prom", str(prom)]) == 0
    text = prom.read_text()
    assert "# HELP slo_" in text
    assert "# TYPE slo_" in text
    assert "slo_fg_read_latency_compliance" in text


def test_slo_compare_flags_storm_regression(capsys, tmp_path):
    clean = tmp_path / "SLO_clean.json"
    storm = tmp_path / "SLO_storm.json"
    fleet = ["fleet", "--smoke", "--volumes", "8", "--seed", "0",
             "--json", str(tmp_path / "f.json")]
    assert main(fleet + ["--slo-json", str(clean)]) == 0
    assert main(fleet + ["--faults", "--slo-json", str(storm)]) == 0
    assert main(["fleet", "--compare", str(clean), str(storm)]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out
    # identical documents compare clean
    assert main(["fleet", "--compare", str(clean), str(clean)]) == 0
    # an SLO baseline never compares against a FLEET candidate
    with pytest.raises(ValueError, match="repro.fleet/v1.*repro.slo/v1"):
        main(["fleet", "--compare", str(clean), str(tmp_path / "f.json")])


def test_fleet_slo_gating_report(capsys, tmp_path):
    assert main(["fleet", "--smoke", "--volumes", "8", "--seed", "0",
                 "--slo", "--json", str(tmp_path / "f.json")]) == 0
    out = capsys.readouterr().out
    assert "SLO gating" in out
    doc = json.loads((tmp_path / "f.json").read_text())
    assert "slo" in doc
    assert "slo" in doc["config"]
    assert doc["slo"]["alerts"]


@pytest.mark.parametrize("flag", [["--slo-json", "s.json"],
                                  ["--slo-prom", "s.prom"]])
def test_slo_flags_imply_the_gated_run(flag, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["fleet", "--smoke", "--volumes", "4", "--seed", "0",
                 "--slo", "--json", "gated.json"]) == 0
    assert main(["fleet", "--smoke", "--volumes", "4", "--seed", "0",
                 "--json", "implied.json"] + flag) == 0
    assert ((tmp_path / "implied.json").read_text()
            == (tmp_path / "gated.json").read_text())
