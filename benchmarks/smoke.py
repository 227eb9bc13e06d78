"""CLI smoke checks: every verb end to end, one table of rows.

Usage (from any empty directory; every output lands there)::

    python /path/to/repo/benchmarks/smoke.py

Each row runs its verbs as ``python -m repro ...`` subprocesses, every
run must exit 0, then the row's checks run on the files the verbs wrote:
byte equality between two runs (``same``), the bench document against
the committed baseline, and per-document validators.  The script stops
at the first failing row, names it and exits 1.  Each row prints its
wall time.  The files CI keeps are copied into ``artifacts/``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BASELINE = ROOT / "benchmarks" / "baselines" / "BENCH_ci_baseline.json"


def run(argv):
    """One verb in a fresh interpreter; a non-zero exit fails the row."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    code = subprocess.run([sys.executable, "-m", "repro", *argv], env=env).returncode
    assert code == 0, f"repro {' '.join(argv)} exited {code}"


def same(*pairs):
    """Check: each pair of files holds the same bytes."""
    def check():
        for first, second in pairs:
            assert Path(first).read_bytes() == Path(second).read_bytes(), (
                f"{first} and {second} differ")
    return check


# -- per-document validators ------------------------------------------------

def bench_document():
    doc = json.load(open("BENCH_ci.json"))
    assert doc["schema"] == "repro.bench/v1", doc.get("schema")
    checked = 0
    for figure in doc["figures"].values():
        for summary in figure.values():
            attribution = summary.get("attribution")
            if attribution is None:
                continue
            assert attribution["ok"], "attribution invariant violated"
            checked += 1
    assert checked, "no attribution captured"
    trace = json.load(open("trace.json"))
    assert trace["fragTimeline"]["samples"] > 0, "empty frag timeline"


def bench_matches_baseline():
    """The virtual-time figures equal the committed baseline value for
    value, ``label`` aside; tracing does not perturb them."""
    fresh = json.load(open("BENCH_ci.json"))
    committed = json.load(open(BASELINE))
    fresh = {k: v for k, v in fresh.items() if k != "label"}
    committed = {k: v for k, v in committed.items() if k != "label"}
    assert fresh["fingerprint"] == committed["fingerprint"], (
        fresh["fingerprint"], committed["fingerprint"])
    assert fresh == committed, "virtual-time figures drifted from baseline"


def trace_artifacts():
    doc = json.load(open("trace-phases.json"))
    assert "metrics" in doc, "metrics missing from trace"
    names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"]
    for phase in ("phase.before", "phase.analysis", "fragpicker.defragment", "phase.after"):
        assert names.count(phase) == 1, f"{phase}: {names.count(phase)} spans"
    summary = json.load(open("trace-summary.json"))
    assert summary["schema"] == "repro.obs.trace/v2", summary.get("schema")
    fanout = summary["split_fanout"]
    assert fanout["before"]["mean"] > fanout["after"]["mean"], fanout
    assert summary["attribution"]["ok"] is True, summary["attribution"]


def survival_report():
    doc = json.load(open("faults-smoke.json"))
    assert doc["ok"], "fault survival report failed"
    for sweep in doc["sweeps"]:
        assert sweep["recovered"] == sweep["points"], sweep
    campaign = doc["campaign"]
    assert campaign["data_intact"], campaign
    assert campaign["pending_after_recovery"] == 0, campaign


def campaign_reproducible():
    from repro.faults.campaign import CampaignConfig, run_campaign
    first = run_campaign(CampaignConfig(seed=42))
    second = run_campaign(CampaignConfig(seed=42))
    assert first.fingerprint == second.fingerprint, (
        first.fingerprint, second.fingerprint)


def fleet_document():
    doc = json.load(open("FLEET_ci.json"))
    assert doc["schema"] == "repro.fleet/v1", doc.get("schema")
    assert doc["jobs"]["admitted"] >= 1, "trigger admitted no jobs"
    assert doc["migration"]["budget_ok"], "per-tick budget exceeded"
    assert doc["foreground"]["read_p99_s"] > 0, "no p99 in SLO report"
    budget = doc["config"]["budget_per_tick"]
    for row in doc["census"]["ticks"]:
        assert row["migrated_bytes"] <= budget, row


def slo_document():
    from repro.obs.slo import validate
    doc = json.load(open("SLO_ci.json"))
    assert doc["schema"] == "repro.slo/v1", doc.get("schema")
    validate(doc)
    assert "fg_read_latency" in doc["slos"], "fleet SLO missing"
    assert any(n.startswith("vol.") for n in doc["slos"]), "no volume SLOs"
    text = open("slo-ci.prom").read()
    assert "# HELP slo_" in text, "prometheus export lost HELP lines"


def gated_fleet_matches_slo_document():
    # the FLEET slo section and the SLO document come from one plane
    section = json.load(open("FLEET_slo.json"))["slo"]
    doc = json.load(open("SLO_ci.json"))
    fleet_level = {name: summary for name, summary in doc["slos"].items()
                   if not name.startswith("vol.")}
    assert section["slos"] == fleet_level, "fleet SLO summaries differ"
    assert section["alerts"] == doc["alerts"], "alert tables differ"
    volume_alerts = sum(1 for row in doc["alerts"] if row["slo"].startswith("vol."))
    assert section["volume_alerts"] == volume_alerts, section["volume_alerts"]


def replay_document():
    from repro.replay import validate
    doc = json.load(open("REPLAY_ci.json"))
    assert doc["schema"] == "repro.replay/v1", doc.get("schema")
    validate(doc)
    assert doc["parse"]["records"] > 0, "empty parse"
    assert doc["parse"]["malformed"] == 0, "generator wrote malformed records"
    assert doc["reconstruction"]["ops"] > 0, "nothing re-issued"
    assert doc["figures"]["ops_per_vsec"] > 0, "no throughput figure"


def ledger_manifests():
    from repro.obs.ledger import list_runs, manifest_fingerprint
    runs = list_runs("ledger-ci")  # validates schema + fingerprints
    verbs = [run["verb"] for run in runs]
    assert verbs == ["fleet", "fleet", "bench", "bench", "faults"], verbs
    # the serial/parallel bench manifest pair differs only in
    # `workers`: same doc fingerprint, same headline figures
    serial, par = runs[2], runs[3]
    assert serial["doc_fingerprint"] == par["doc_fingerprint"]
    assert serial["headline"] == par["headline"]
    assert serial["workers"] is None and par["workers"] == 2
    # re-deriving each manifest's fingerprint reproduces the bytes
    for run in runs:
        assert manifest_fingerprint(run) == run["fingerprint"], run


# -- the table --------------------------------------------------------------

FLEET = ["fleet", "--smoke", "--volumes", "8"]
SLO_FLEET = FLEET + ["--seed", "0"]


def armed_fleet(run_id):
    return FLEET + ["--json", f"FLEET_obs_{run_id}.json", "--trace", f"trace-{run_id}.json",
                    "--metrics-json", f"metrics-{run_id}.json", "--prom", f"fleet-{run_id}.prom",
                    "--ledger-dir", "ledger-ci"]


def storm_fleet(run_id):
    return FLEET + ["--faults", "--json", f"FLEET_storm-{run_id}.json",
                    "--metrics-json", f"storm-metrics-{run_id}.json",
                    "--trace", f"storm-trace-{run_id}.json"]


def armed_bench(run_id, *workers):
    return ["bench", "--smoke", "--label", "ci", *workers,
            "--json", f"BENCH_obs_{run_id}.json", "--metrics-json", f"bench-metrics-{run_id}.json",
            "--prom", f"bench-{run_id}.prom", "--ledger-dir", "ledger-ci"]


#: (name, verb argvs run in order, checks, files kept as artifacts)
ROWS = [
    ("bench smoke: valid document, figures equal the committed baseline",
     [["bench", "--smoke", "--label", "ci", "--json", "BENCH_ci.json", "--trace", "trace.json"]],
     [bench_document, bench_matches_baseline],
     ["BENCH_ci.json", "trace.json"]),
    ("trace smoke: artifacts are valid",
     [["trace", "--smoke", "--out", "trace-phases.json", "--json", "trace-summary.json"]],
     [trace_artifacts],
     ["trace-phases.json", "trace-summary.json"]),
    ("faults smoke: crash sweep and campaign survive",
     [["faults", "--smoke", "--json", "faults-smoke.json"]],
     [survival_report],
     ["faults-smoke.json"]),
    ("seeded campaign is reproducible", [], [campaign_reproducible], []),
    ("fleet smoke: valid document",
     [FLEET + ["--json", "FLEET_ci.json"]], [fleet_document], ["FLEET_ci.json"]),
    ("fleet document is byte-reproducible",
     [FLEET + ["--json", "FLEET_ci2.json"]], [same(("FLEET_ci.json", "FLEET_ci2.json"))], []),
    ("identical fleet runs compare clean",
     [["fleet", "--compare", "FLEET_ci.json", "FLEET_ci2.json"]], [], []),
    ("armed fault-storm fleet is byte-reproducible",
     [storm_fleet("a"), storm_fleet("b")],
     [same(("FLEET_storm-a.json", "FLEET_storm-b.json"),
           ("storm-metrics-a.json", "storm-metrics-b.json"),
           ("storm-trace-a.json", "storm-trace-b.json"))],
     []),
    ("gated fleet writes a valid SLO document",
     [SLO_FLEET + ["--slo", "--json", "FLEET_slo.json", "--slo-json", "SLO_ci.json",
                   "--slo-prom", "slo-ci.prom"]],
     [slo_document, gated_fleet_matches_slo_document],
     ["SLO_ci.json", "slo-ci.prom"]),
    ("SLO document is byte-reproducible",
     [SLO_FLEET + ["--json", "FLEET_slo2.json", "--slo-json", "SLO_ci2.json"]],
     [same(("SLO_ci.json", "SLO_ci2.json"))],
     []),
    ("replay smoke: seeded corpus replays to a valid document",
     [["replay", "--generate", "20000", "--out", "trace-ci.bin", "--seed", "7", "--files", "16"],
      ["replay", "--trace", "trace-ci.bin", "--json", "REPLAY_ci.json"]],
     [replay_document],
     ["REPLAY_ci.json"]),
    ("replay document is byte-reproducible",
     [["replay", "--trace", "trace-ci.bin", "--json", "REPLAY_ci2.json"]],
     [same(("REPLAY_ci.json", "REPLAY_ci2.json"))],
     []),
    ("identical replay runs compare clean",
     [["replay", "--compare", "REPLAY_ci.json", "REPLAY_ci2.json"]], [], []),
    ("chunked corpus generation is worker-count invariant",
     [["replay", "--generate", "30000", "--out", "gen-w1.bin", "--seed", "7", "--workers", "1"],
      ["replay", "--generate", "30000", "--out", "gen-w2.bin", "--seed", "7", "--workers", "2"]],
     [same(("gen-w1.bin", "gen-w2.bin"))],
     []),
    ("armed fleet exports are byte-identical run to run",
     [armed_fleet("a"), armed_fleet("b")],
     [same(("FLEET_obs_a.json", "FLEET_obs_b.json"), ("metrics-a.json", "metrics-b.json"),
           ("fleet-a.prom", "fleet-b.prom"), ("trace-a.json", "trace-b.json"))],
     ["fleet-a.prom", "trace-a.json"]),
    ("armed bench exports are byte-identical serial vs --workers 2",
     [armed_bench("serial"), armed_bench("par", "--workers", "2")],
     [same(("BENCH_obs_serial.json", "BENCH_obs_par.json"),
           ("bench-metrics-serial.json", "bench-metrics-par.json"),
           ("bench-serial.prom", "bench-par.prom"))],
     []),
    ("ledger manifests validate and reproduce their fingerprints",
     [["faults", "--smoke", "--ledger-dir", "ledger-ci"]],
     [ledger_manifests],
     ["ledger-ci"]),
    ("run-ledger trajectory renders across verbs",
     [["runs", "--ledger-dir", "ledger-ci"], ["runs", "trajectory", "--ledger-dir", "ledger-ci"]],
     [], []),
]


def main() -> int:
    if not __debug__:
        sys.exit("the checks are assert statements: run without -O")
    sys.path.insert(0, str(SRC))
    # a second run in the same directory starts from an empty ledger
    # (ledger_manifests counts its manifests) and fresh artifacts
    for stale in ("ledger-ci", "artifacts"):
        shutil.rmtree(stale, ignore_errors=True)
    for name, runs, checks, _ in ROWS:
        print(f"== {name}", flush=True)
        start = time.perf_counter()
        try:
            for argv in runs:
                run(argv)
            for check in checks:
                check()
        except Exception:
            traceback.print_exc()
            print(f"FAILED: {name}")
            return 1
        print(f"ok {time.perf_counter() - start:6.2f} s  {name}", flush=True)
    os.makedirs("artifacts", exist_ok=True)
    for _, _, _, kept in ROWS:
        for path in kept:
            copy = shutil.copytree if os.path.isdir(path) else shutil.copy
            copy(path, os.path.join("artifacts", path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
