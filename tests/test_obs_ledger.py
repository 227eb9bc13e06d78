"""The persistent run ledger: manifests, fingerprints, and `repro runs`.

A manifest's fingerprint must hash only what a deterministic re-run
reproduces (never wall time or host shape), the ledger must append in
sequence order, and the CLI verb must render list/show/trajectory views
over it.
"""

from __future__ import annotations

import argparse
import json
import os

import pytest

from repro import cli, doc
from repro.bench.suite import build_document
from repro.obs import ledger

FLEET_DOC = {
    "schema": "repro.fleet/v1",
    "fingerprint": "abcd1234abcd1234",
    "jobs": {"completed": 5},
    "migration": {"payload_bytes": 1024, "budget_ok": True},
    "foreground": {"read_p99_s": 0.002},
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


def test_manifest_headlines_per_verb():
    fleet = ledger.build_manifest("fleet", FLEET_DOC)
    assert fleet["headline"] == {
        "jobs_completed": 5, "migrated_bytes": 1024,
        "fg_read_p99_s": 0.002, "budget_ok": True,
    }
    faults = ledger.build_manifest("faults", FAULTS_DOC)
    assert faults["headline"]["faults_injected"] == 6
    assert faults["headline"]["trials"] == 3
    # the faults document carries its fingerprint on the campaign
    assert faults["doc_fingerprint"] == "beadfeedbeadfeed"


def test_bench_doc_fingerprint_sees_figure_drift():
    # BENCH's stored fingerprint hashes only the config, so the manifest
    # records the document's result hash instead
    config = {"seed": 42, "smoke": True}
    figures = {"fig": {"v": {"throughput_mbps": 100.0}}}
    document = build_document("ci", config, figures)
    drifted = build_document(
        "ci", config, {"fig": {"v": {"throughput_mbps": 101.0}}}
    )
    relabelled = build_document("other", config, figures)
    assert drifted["fingerprint"] == document["fingerprint"]
    recorded = ledger.build_manifest("bench", document)["doc_fingerprint"]
    assert recorded == doc.BENCH.fingerprint(document)
    assert ledger.build_manifest("bench", drifted)["doc_fingerprint"] != recorded
    # the label is not part of the result: serial and --workers runs of
    # the same suite under different labels still agree
    assert ledger.build_manifest("bench", relabelled)["doc_fingerprint"] == recorded


def test_record_and_list_roundtrip_with_sequence_numbers(tmp_path):
    directory = str(tmp_path / "ledger")
    p0 = ledger.record_run("fleet", FLEET_DOC, label="ci", seed=1,
                           directory=directory)
    p1 = ledger.record_run("faults", FAULTS_DOC, label="ci",
                           directory=directory)
    assert "000000_fleet_" in p0 and "000001_faults_" in p1
    runs = ledger.list_runs(directory)
    assert [run["verb"] for run in runs] == ["fleet", "faults"]
    assert runs[0]["path"] == p0
    only_faults = ledger.list_runs(directory, verb="faults")
    assert [run["verb"] for run in only_faults] == ["faults"]


def test_sequence_numbers_never_repeat_after_a_deletion(tmp_path, capsys):
    directory = str(tmp_path / "ledger")
    paths = [ledger.record_run("fleet", FLEET_DOC, seed=seed,
                               directory=directory) for seed in range(3)]
    os.remove(paths[1])
    last = ledger.record_run("faults", FAULTS_DOC, directory=directory)
    assert "000003_faults_" in last
    assert cli.main(["runs", "show", "000002", "--ledger-dir", directory]) == 0
    shown = capsys.readouterr().out.splitlines()
    assert [line for line in shown if line.startswith("# ")] == [f"# {paths[2]}"]


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
    ledger.record_run("faults", FAULTS_DOC, label="ci", directory=directory)
    runs = ledger.list_runs(directory)
    listing = ledger.runs_table(runs)
    assert "fleet" in listing and "faults" in listing
    assert "abcd1234abcd" in listing  # doc fingerprint, truncated
    trajectory = ledger.trajectory_table(runs)
    # union of headline keys across both verbs becomes the column set
    assert "jobs_completed" in trajectory
    assert "faults_injected" in trajectory


# ----------------------------------------------------------------------
# the CLI verb
# ----------------------------------------------------------------------

def _seeded_ledger(tmp_path) -> str:
    directory = str(tmp_path / "ledger")
    ledger.record_run("fleet", FLEET_DOC, label="ci", seed=1,
                      directory=directory)
    ledger.record_run("faults", FAULTS_DOC, label="ci", directory=directory)
    return directory


def test_cli_runs_list_and_trajectory(tmp_path, capsys):
    directory = _seeded_ledger(tmp_path)
    assert cli.main(["runs", "--ledger-dir", directory]) == 0
    out = capsys.readouterr().out
    assert "fleet" in out and "faults" in out and "headline" in out

    assert cli.main(["runs", "trajectory", "--ledger-dir", directory]) == 0
    out = capsys.readouterr().out
    assert "jobs_completed" in out and "faults_injected" in out

    assert cli.main(["runs", "list", "--verb", "faults",
                     "--ledger-dir", directory]) == 0
    out = capsys.readouterr().out
    assert "faults" in out and "fleet" not in out


def test_cli_runs_show_by_seq_and_fingerprint(tmp_path, capsys):
    directory = _seeded_ledger(tmp_path)
    assert cli.main(["runs", "show", "1", "--ledger-dir", directory]) == 0
    shown = capsys.readouterr().out
    assert '"verb": "faults"' in shown

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


#: a manifest as the retired ``perf`` verb recorded it, byte for byte:
#: wall readings in an unfingerprinted ``timings`` field
OLD_MANIFEST = """{
  "args": {
    "scaling": false,
    "smoke": true
  },
  "doc_fingerprint": "ffff0000ffff0000",
  "doc_schema": null,
  "fingerprint": "345e422507af89b4f7d5c84c758715c785155e8c430e78f20e5d7f5f5d8e7aee",
  "headline": {},
  "host_cpus": 2,
  "label": "ci",
  "schema": "repro.ledger/v1",
  "seed": null,
  "timings": {
    "end_to_end_wall_s": 0.9,
    "total_wall_s": 1.5
  },
  "verb": "perf",
  "wall_s": 2.25,
  "workers": null
}
"""


def test_old_perf_manifests_still_load_and_render(tmp_path, capsys):
    directory = tmp_path / "ledger"
    directory.mkdir()
    (directory / "000000_perf_345e422507af.json").write_text(OLD_MANIFEST)
    ledger.record_run("fleet", FLEET_DOC, label="ci", seed=1,
                      directory=str(directory))
    ledger.validate_manifest(json.loads(OLD_MANIFEST))
    ledger_dir = ["--ledger-dir", str(directory)]

    assert cli.main(["runs", "list"] + ledger_dir) == 0
    out = capsys.readouterr().out
    assert "perf" in out and "total_wall_s=1.5" in out and "fleet" in out

    assert cli.main(["runs", "show", "345e4225"] + ledger_dir) == 0
    assert json.loads(capsys.readouterr().out.split("\n", 1)[1]) == (
        json.loads(OLD_MANIFEST))

    assert cli.main(["runs", "trajectory"] + ledger_dir) == 0
    out = capsys.readouterr().out
    assert "end_to_end_wall_s" in out and "jobs_completed" in out


def test_runs_verb_choices_are_the_recording_verbs():
    """``runs --verb`` offers exactly the verbs that record runs: the
    live subcommands that take ``--no-ledger``, plus ``slo``, under which
    ``fleet --slo-json`` records its SLO document — the ledger's own
    ``VERBS``."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    verb = next(a for a in sub.choices["runs"]._actions
                if a.dest == "verb")
    recording = {
        name for name, subparser in sub.choices.items()
        if any(a.dest == "no_ledger" for a in subparser._actions)
    }
    assert "fleet" in recording and "slo" not in sub.choices
    assert set(verb.choices) == recording | {"slo"}
    # the parser derives the list without importing the ledger: both
    # lists must still name the same verbs
    assert set(verb.choices) == set(ledger.VERBS)


def test_fleet_slo_json_records_an_slo_manifest(tmp_path, capsys):
    ledger_dir = ["--ledger-dir", str(tmp_path / "ledger")]
    assert cli.main(["fleet", "--smoke", "--volumes", "4", "--seed", "0",
                     "--json", str(tmp_path / "f.json"),
                     "--slo-json", str(tmp_path / "s.json")] + ledger_dir) == 0
    runs = ledger.list_runs(str(tmp_path / "ledger"))
    assert [run["verb"] for run in runs] == ["fleet", "slo"]
    slo_run = runs[1]
    assert slo_run["args"] == {"smoke": True, "volumes": 4, "faults": False}
    assert slo_run["seed"] == 0 and slo_run["label"] == "smoke"
    assert slo_run["doc_fingerprint"] == json.loads(
        (tmp_path / "s.json").read_text())["fingerprint"]
    capsys.readouterr()
    assert cli.main(["runs", "--verb", "slo"] + ledger_dir) == 0
    out = capsys.readouterr().out
    assert "slo" in out and "fleet" not in out
