"""The persistent run ledger: manifests, fingerprints, and `repro runs`.

A manifest's fingerprint must hash only what a deterministic re-run
reproduces (never wall time or host shape), the ledger must append in
sequence order, and the CLI verb must render list/show/trajectory views
over it.
"""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.obs import ledger

FLEET_DOC = {
    "schema": "repro.fleet/v1",
    "fingerprint": "abcd1234abcd1234",
    "jobs": {"completed": 5},
    "migration": {"payload_bytes": 1024, "budget_ok": True},
    "foreground": {"read_p99_s": 0.002},
}

PERF_DOC = {
    "schema": "repro.perf/v1",
    "fingerprint": "ffff0000ffff0000",
    "total_wall_s": 1.5,
    "layers": {"end_to_end": {"wall_s": 0.9}},
}

FAULTS_DOC = {
    "ok": True,
    "sweeps": [{"device": "optane"}],
    "campaign": {"fingerprint": "beadfeedbeadfeed", "faults_injected": 6,
                 "data_intact": True},
    "series": {"trials": 3},
}


def test_manifest_fingerprint_excludes_wall_time_and_host_shape():
    fast = ledger.build_manifest("fleet", FLEET_DOC, label="ci", seed=3,
                                 wall_s=0.1)
    slow = ledger.build_manifest("fleet", FLEET_DOC, label="ci", seed=3,
                                 wall_s=99.0)
    assert fast["fingerprint"] == slow["fingerprint"]
    assert fast["wall_s"] != slow["wall_s"]
    # but every deterministic field moves it
    other = ledger.build_manifest("fleet", FLEET_DOC, label="ci", seed=4)
    assert other["fingerprint"] != fast["fingerprint"]


def test_perf_smoke_manifests_share_one_fingerprint(tmp_path):
    """Two real `perf --smoke` runs read different wall times, yet their
    manifests reproduce one fingerprint: the readings are timings."""
    directory = str(tmp_path / "ledger")
    for name in ("a", "b"):
        assert cli.main(["perf", "--smoke", "--no-profile",
                         "--json", str(tmp_path / f"PERF_{name}.json"),
                         "--ledger-dir", directory]) == 0
    first, second = ledger.list_runs(directory)
    assert first["fingerprint"] == second["fingerprint"]
    assert "total_wall_s" in first["timings"]


def test_manifest_headlines_per_verb():
    fleet = ledger.build_manifest("fleet", FLEET_DOC)
    assert fleet["headline"] == {
        "jobs_completed": 5, "migrated_bytes": 1024,
        "fg_read_p99_s": 0.002, "budget_ok": True,
    }
    perf = ledger.build_manifest("perf", PERF_DOC)
    # wall readings are timings, outside the fingerprinted headline
    assert perf["headline"] == {}
    assert perf["timings"] == {"total_wall_s": 1.5, "end_to_end_wall_s": 0.9}
    faults = ledger.build_manifest("faults", FAULTS_DOC)
    assert faults["headline"]["faults_injected"] == 6
    assert faults["headline"]["trials"] == 3
    # the faults document carries its fingerprint on the campaign
    assert faults["doc_fingerprint"] == "beadfeedbeadfeed"


def test_record_and_list_roundtrip_with_sequence_numbers(tmp_path):
    directory = str(tmp_path / "ledger")
    p0 = ledger.record_run("fleet", FLEET_DOC, label="ci", seed=1,
                           directory=directory)
    p1 = ledger.record_run("perf", PERF_DOC, label="ci",
                           directory=directory)
    assert "000000_fleet_" in p0 and "000001_perf_" in p1
    runs = ledger.list_runs(directory)
    assert [run["verb"] for run in runs] == ["fleet", "perf"]
    assert runs[0]["path"] == p0
    only_perf = ledger.list_runs(directory, verb="perf")
    assert [run["verb"] for run in only_perf] == ["perf"]


def test_recorded_manifests_are_byte_reproducible(tmp_path):
    a = ledger.record_run("fleet", FLEET_DOC, label="ci", seed=1,
                          directory=str(tmp_path / "a"))
    b = ledger.record_run("fleet", FLEET_DOC, label="ci", seed=1,
                          directory=str(tmp_path / "b"))
    doc_a = json.loads(open(a).read())
    doc_b = json.loads(open(b).read())
    assert doc_a["fingerprint"] == doc_b["fingerprint"]
    # byte-identical apart from the non-deterministic wall clock fields
    for key in ("wall_s", "host_cpus"):
        doc_a.pop(key), doc_b.pop(key)
    assert doc_a == doc_b


def test_validate_manifest_error_paths(tmp_path):
    manifest = ledger.build_manifest("fleet", FLEET_DOC)
    ledger.validate_manifest(manifest)  # a fresh manifest validates

    with pytest.raises(ValueError, match="schema"):
        ledger.validate_manifest({**manifest, "schema": "nope/v9"})
    missing = dict(manifest)
    del missing["headline"]
    with pytest.raises(ValueError, match="missing"):
        ledger.validate_manifest(missing)
    with pytest.raises(ValueError, match="fingerprint mismatch"):
        ledger.validate_manifest({**manifest, "seed": 999})

    # a tampered file on disk is loud at list time
    directory = str(tmp_path / "ledger")
    path = ledger.record_run("fleet", FLEET_DOC, directory=directory)
    tampered = json.loads(open(path).read())
    tampered["label"] = "forged"
    with open(path, "w") as fh:
        json.dump(tampered, fh)
    with pytest.raises(ValueError, match="fingerprint mismatch"):
        ledger.list_runs(directory)


def test_resolve_dir_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_LEDGER_DIR", raising=False)
    assert ledger.resolve_dir() == ledger.DEFAULT_DIR
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path))
    assert ledger.resolve_dir() == str(tmp_path)
    assert ledger.resolve_dir("explicit") == "explicit"


def test_tables_render_across_verbs(tmp_path):
    directory = str(tmp_path / "ledger")
    ledger.record_run("fleet", FLEET_DOC, label="ci", seed=1,
                      directory=directory)
    ledger.record_run("perf", PERF_DOC, label="ci", directory=directory)
    runs = ledger.list_runs(directory)
    listing = ledger.runs_table(runs)
    assert "fleet" in listing and "perf" in listing
    assert "abcd1234abcd" in listing  # doc fingerprint, truncated
    trajectory = ledger.trajectory_table(runs)
    # union of headline keys across both verbs becomes the column set
    assert "jobs_completed" in trajectory
    assert "total_wall_s" in trajectory


# ----------------------------------------------------------------------
# the CLI verb
# ----------------------------------------------------------------------

def _seeded_ledger(tmp_path) -> str:
    directory = str(tmp_path / "ledger")
    ledger.record_run("fleet", FLEET_DOC, label="ci", seed=1,
                      directory=directory)
    ledger.record_run("perf", PERF_DOC, label="ci", directory=directory)
    return directory


def test_cli_runs_list_and_trajectory(tmp_path, capsys):
    directory = _seeded_ledger(tmp_path)
    assert cli.main(["runs", "--ledger-dir", directory]) == 0
    out = capsys.readouterr().out
    assert "fleet" in out and "perf" in out and "headline" in out

    assert cli.main(["runs", "trajectory", "--ledger-dir", directory]) == 0
    out = capsys.readouterr().out
    assert "jobs_completed" in out and "end_to_end_wall_s" in out

    assert cli.main(["runs", "list", "--verb", "perf",
                     "--ledger-dir", directory]) == 0
    out = capsys.readouterr().out
    assert "perf" in out and "fleet" not in out


def test_cli_runs_show_by_seq_and_fingerprint(tmp_path, capsys):
    directory = _seeded_ledger(tmp_path)
    assert cli.main(["runs", "show", "1", "--ledger-dir", directory]) == 0
    shown = capsys.readouterr().out
    assert '"verb": "perf"' in shown

    fingerprint = ledger.list_runs(directory)[0]["fingerprint"][:10]
    assert cli.main(["runs", "show", fingerprint,
                     "--ledger-dir", directory]) == 0
    assert '"verb": "fleet"' in capsys.readouterr().out

    assert cli.main(["runs", "show", "doesnotexist",
                     "--ledger-dir", directory]) == 1
    assert cli.main(["runs", "show", "--ledger-dir", directory]) == 2


def test_cli_runs_empty_ledger_is_a_clean_exit(tmp_path, capsys):
    directory = str(tmp_path / "nothing")
    assert cli.main(["runs", "--ledger-dir", directory]) == 0
    assert "empty" in capsys.readouterr().out
