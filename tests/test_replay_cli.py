"""The ``repro replay`` verb and the fleet ``trace:<path>`` workload."""

import json

import pytest

from repro.cli import main
from repro.errors import InvalidArgument
from repro.fleet import FleetConfig
from repro.fleet.controller import run_fleet
from repro.fleet.spec import make_volume_specs
from repro.replay import TraceProfile, generate_trace, validate


@pytest.fixture
def trace_path(tmp_path):
    path = str(tmp_path / "t.bin")
    generate_trace(path, TraceProfile(ops=1500, seed=4, files=8))
    return path


def test_replay_generate(capsys, tmp_path):
    out = str(tmp_path / "gen.bin")
    assert main(["replay", "--generate", "500", "--out", out,
                 "--seed", "2", "--files", "8"]) == 0
    assert "wrote" in capsys.readouterr().out
    assert main(["replay", "--trace", out,
                 "--json", str(tmp_path / "R.json")]) == 0


def test_replay_help_says_workers_change_the_corpus(capsys):
    with pytest.raises(SystemExit):
        main(["replay", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert "differs from the serial one for the same seed" in out
    assert "byte-identical either way" not in out


def test_replay_document_round_trip(capsys, trace_path, tmp_path):
    doc_path = tmp_path / "REPLAY_x.json"
    assert main(["replay", "--trace", trace_path, "--label", "x",
                 "--json", str(doc_path)]) == 0
    out = capsys.readouterr().out
    assert "trace replay report" in out
    assert "fingerprint" in out
    document = json.loads(doc_path.read_text())
    validate(document)
    assert document["label"] == "x"
    assert document["reconstruction"]["ops"] > 0


def test_replay_fingerprint_stable_across_invocations(trace_path, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["replay", "--trace", trace_path, "--json", str(a)]) == 0
    assert main(["replay", "--trace", trace_path, "--json", str(b)]) == 0
    doc_a, doc_b = json.loads(a.read_text()), json.loads(b.read_text())
    assert doc_a["fingerprint"] == doc_b["fingerprint"]


def test_replay_compare_identical_documents(capsys, trace_path, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["replay", "--trace", trace_path, "--label", "a", "--json", str(a)])
    main(["replay", "--trace", trace_path, "--label", "b", "--json", str(b)])
    capsys.readouterr()
    assert main(["replay", "--compare", str(a), str(b)]) == 0
    assert "0 regression(s)" in capsys.readouterr().out


def test_replay_without_trace_errors(capsys):
    assert main(["replay"]) == 2
    assert "--trace" in capsys.readouterr().err


def test_replay_smoke_needs_no_trace(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["replay", "--smoke", "--json", str(tmp_path / "R.json")]) == 0
    assert "trace replay report" in capsys.readouterr().out


# ----------------------------------------------------------------------
# fleet integration
# ----------------------------------------------------------------------

def test_fleet_config_rejects_bad_workload():
    with pytest.raises(InvalidArgument):
        FleetConfig(workload="bogus")
    with pytest.raises(InvalidArgument):
        FleetConfig(workload="trace:")
    FleetConfig(workload="read_seq")
    FleetConfig(workload="trace:/some/path.bin")


def test_workload_override_reaches_every_volume(trace_path):
    config = FleetConfig.smoke(volumes=4, workload=f"trace:{trace_path}")
    specs = make_volume_specs(config)
    assert all(s.workload == f"trace:{trace_path}" for s in specs)


def test_workload_override_does_not_perturb_other_draws(trace_path):
    plain = make_volume_specs(FleetConfig.smoke(volumes=4))
    traced = make_volume_specs(
        FleetConfig.smoke(volumes=4, workload=f"trace:{trace_path}")
    )
    for a, b in zip(plain, traced):
        assert a.files == b.files
        assert a.fs_type == b.fs_type and a.device == b.device


def test_plain_fleet_fingerprint_unaffected_by_workload_field():
    """The conditional to_dict key keeps pre-override fleet documents
    byte-identical."""
    config = FleetConfig.smoke(volumes=2)
    assert "workload" not in config.to_dict()
    traced = FleetConfig.smoke(volumes=2, workload="read_seq")
    assert traced.to_dict()["workload"] == "read_seq"


def test_trace_driven_fleet_runs_and_reproduces(trace_path):
    config = FleetConfig.smoke(
        volumes=2, ticks=3, workload=f"trace:{trace_path}"
    )
    report_a = run_fleet(config)
    report_b = run_fleet(config)
    doc_a, doc_b = report_a.to_dict(), report_b.to_dict()
    assert doc_a["fingerprint"] == doc_b["fingerprint"]
    assert doc_a["foreground"]["ops"] > 0
    assert doc_a["foreground"]["read_count"] > 0


def test_fleet_cli_accepts_trace_workload(capsys, trace_path, tmp_path):
    doc_path = tmp_path / "FLEET_t.json"
    assert main(["fleet", "--smoke", "--volumes", "2", "--ticks", "2",
                 "--workload", f"trace:{trace_path}",
                 "--json", str(doc_path)]) == 0
    document = json.loads(doc_path.read_text())
    assert document["config"]["workload"] == f"trace:{trace_path}"
