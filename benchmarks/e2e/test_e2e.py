"""Tests of the benchmark's machinery: layer rollup, output check, verdicts.

Run with ``PYTHONPATH=src python -m pytest -q benchmarks/e2e``.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import rollup
import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


@pytest.fixture(scope="module")
def tiny_replay(tmp_path_factory):
    """A 400-op read-heavy replay: its call and its outcome document."""
    from repro.replay import TraceProfile, generate_trace

    shape = dict(spec.REPLAY_PROFILES["replay_read"], ops=400)
    path = str(tmp_path_factory.mktemp("e2e") / "tiny.bin")
    generate_trace(path, TraceProfile(seed=3, **shape))
    workload = spec.WORKLOADS["replay_read"]
    call = workload.setup({"trace": path, "seed": 3})
    return workload, call, workload.outcome(call())


# ----------------------------------------------------------------------
# the layer rollup
# ----------------------------------------------------------------------

def test_rollup_partitions_a_tiny_replay(tiny_replay):
    import repro

    _, call, _ = tiny_replay
    profiler = cProfile.Profile()
    profiler.enable()
    call()
    profiler.disable()
    split = rollup.Rollup(
        pstats.Stats(profiler).stats,
        repro_root=os.path.dirname(repro.__file__), bench_root=str(HERE),
    ).split()

    assert split["residual_rel"] <= rollup.TOLERANCE
    layers = split["layers"]
    assert set(layers) == set(spec.ALL_LAYERS)
    assert sum(row["self_share"] for row in layers.values()) == pytest.approx(1.0)
    for layer in ("fs", "block", "device", "replay", "obs"):
        assert layers[layer]["self_s"] > 0.0, layer
    assert layers["fleet"]["self_s"] == 0.0
    assert split["fs_syscalls"] > 0
    assert len(split["top"]) == rollup.TOP_FUNCTIONS
    assert all(row["layer"] in spec.ALL_LAYERS for row in split["top"])


def test_rollup_charges_builtin_time_to_the_calling_layer():
    root = os.path.join(os.sep, "x", "repro")
    read = (os.path.join(root, "fs", "base.py"), 273, "read")
    submit = (os.path.join(root, "device", "base.py"), 183, "submit")
    helper = (os.path.join(os.sep, "usr", "lib", "bisect.py"), 1, "helper")
    builtin = ("~", 0, "<built-in method builtins.max>")
    stats = {
        read: (1, 1, 0.5, 1.05, {}),
        submit: (2, 2, 0.25, 0.325, {read: (2, 2, 0.25, 0.325)}),
        # a stdlib helper called from both layers, 3:1 by self time ...
        helper: (4, 4, 0.1, 0.3, {read: (3, 3, 0.075, 0.225),
                                  submit: (1, 1, 0.025, 0.075)}),
        # ... and a builtin reached only through it
        builtin: (5, 5, 0.2, 0.2, {helper: (5, 5, 0.2, 0.2)}),
    }
    split = rollup.Rollup(stats, repro_root=root, bench_root=str(HERE)).split()

    layers = split["layers"]
    assert layers["fs"]["self_s"] == pytest.approx(0.5 + 0.75 * 0.3)
    assert layers["device"]["self_s"] == pytest.approx(0.25 + 0.25 * 0.3)
    assert split["total_s"] == pytest.approx(1.05)
    assert split["residual_rel"] <= rollup.TOLERANCE
    assert layers["device"]["calls_in"] == 2
    assert layers["fs"]["calls_in"] == 0
    assert split["fs_syscalls"] == 1
    top = {row["function"]: row for row in split["top"]}
    assert top["~(<built-in method builtins.max>)"]["layer"] == "fs"
    assert top["~(<built-in method builtins.max>)"]["charged_to_caller"]


# ----------------------------------------------------------------------
# the output check
# ----------------------------------------------------------------------

def test_check_rejects_a_changed_counter(tiny_replay):
    workload, _, outcome = tiny_replay
    assert workload.check(outcome) == []

    edited = json.loads(json.dumps(outcome))
    edited["document"]["cache"]["hits"] += 1
    assert any("fingerprint mismatch" in e for e in workload.check(edited))
    assert workload.fingerprint(edited) != workload.fingerprint(outcome)


def test_check_rejects_broken_invariants(tiny_replay):
    from repro.fleet import FleetConfig, fingerprint, run_fleet
    from repro.replay import fingerprint as replay_fingerprint

    workload, _, outcome = tiny_replay
    replay = json.loads(json.dumps(outcome))
    doc = replay["document"]
    doc["parse"]["records"] += 1
    doc["fingerprint"] = replay_fingerprint(doc)
    assert any("parse.records" in e for e in workload.check(replay))

    fleet = spec.WORKLOADS["fleet"]
    report = run_fleet(FleetConfig.smoke(volumes=4, seed=1, faults=True))
    good = fleet.outcome(report)
    assert fleet.check(good) == []
    broken = json.loads(json.dumps(good))
    doc = broken["document"]
    doc["census"]["ticks"][0]["migrated_bytes"] = doc["config"]["budget_per_tick"] + 1
    doc["jobs"]["journal_pending"] = doc["migration"]["ranges_failed"] + 1
    doc["fingerprint"] = fingerprint(doc)
    errors = fleet.check(broken)
    assert any("budget" in e for e in errors)
    assert any("journal entries pending" in e for e in errors)

    cell = {key: 0.0 for key in spec.GRID_CELL_FIELDS}
    grid = {"cells": {"ext4": {
        "conv": {"seq_read": dict(cell, defrag_write_mb=4.0)},
        "fragpicker": {"seq_read": dict(cell, defrag_write_mb=4.5)},
    }}}
    assert spec.WORKLOADS["fig8_grid"].check(grid) == [
        "ext4/seq_read: FragPicker wrote 4.5 MB > Conv 4.0 MB"
    ]


# ----------------------------------------------------------------------
# compare.py verdicts
# ----------------------------------------------------------------------

STEADY = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01]
WALL = spec.Metric("wall_s", "s", "lower", 0.10)


@pytest.mark.parametrize("cand, expected", [
    ([x * 1.2 for x in STEADY], "worse"),
    ([x * 0.8 for x in STEADY], "better"),
    ([x * 1.03 for x in STEADY], "same"),
    # +15 % median but a spread wider than the bound, overlapping the base
    ([0.7, 1.3, 0.9, 1.2, 0.8, 1.25, 1.15, 1.15], "unresolved"),
    # just as noisy, but every candidate run is slower than every base run
    ([1.05, 1.5, 1.1, 1.4, 1.06, 1.45, 1.15, 1.15], "worse"),
])
def test_compare_verdicts(cand, expected):
    assert compare.verdict(WALL, STEADY, cand)[0] == expected


def test_compare_direction_follows_the_metric():
    higher = spec.Metric("ops", "1/s", "higher", 0.10)
    assert compare.verdict(higher, STEADY, [x * 1.2 for x in STEADY])[0] == "better"
    assert compare.verdict(higher, STEADY, [x * 0.8 for x in STEADY])[0] == "worse"


def _document(scale: float):
    e2e = {metric.name: {"samples": [x * scale for x in STEADY]} for metric in spec.E2E}
    per_layer = {"fs.self_share": 0.3 * scale, "device.self_share": 0.5}
    return {"workloads": {"replay_read": {"e2e": e2e, "per_layer": per_layer}}}


def test_compare_exits_1_only_on_worse(tmp_path, capsys):
    base, same, worse = (tmp_path / f"{n}.json" for n in ("base", "same", "worse"))
    base.write_text(json.dumps(_document(1.0)))
    same.write_text(json.dumps(_document(1.01)))
    worse.write_text(json.dumps(_document(1.3)))
    metrics = len(spec.E2E)
    assert compare.main([str(base), str(same)]) == 0
    assert f"{metrics} same" in capsys.readouterr().out
    assert compare.main([str(base), str(worse)]) == 1
    out = capsys.readouterr().out
    assert f"{metrics} worse" in out
    assert out.index("fs.self_share") < out.index("device.self_share")


# ----------------------------------------------------------------------
# BENCHMARK.json agreement and the run without sources
# ----------------------------------------------------------------------

def test_benchmark_json_matches_the_spec():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["paths"] == ["benchmarks/e2e"]
    assert bench["run_seconds"] == spec.DEFAULT_SECONDS
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in spec.WORKLOADS.values()
    ]
    assert bench["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.E2E
    ]
    assert bench["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in spec.PER_LAYER
    ]
    assert set(json.loads((HERE / "expected.json").read_text())[str(spec.DEFAULT_SEED)]) \
        == set(spec.WORKLOADS)


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "fleet",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
