"""Persistent run ledger: a fingerprinted manifest per document run.

Every document-producing verb (``repro bench/fleet/replay/faults``)
appends one **run manifest** under ``benchmarks/ledger/`` — the
run-over-run history a production telemetry pipeline keeps next to its
live exports; ``repro fleet --slo-json`` appends a second one, under the
verb ``slo``, for its SLO document.  A manifest records what ran (verb, label, args, seed,
workers), what it produced (the document's schema and fingerprint plus a
small per-verb *headline* — the figures you would put on a dashboard),
and what it cost (wall seconds, host CPU count).

The manifest's own ``fingerprint`` hashes only the **deterministic**
fields — verb, label, seed, workers, args, document schema/fingerprint,
headline — never wall time or host shape, so re-running the same
seed-keyed workload reproduces the manifest fingerprint byte-for-byte
(``benchmarks/smoke.py`` asserts exactly that).  Filenames are
sequence-numbered (``000007_fleet_ab12cd34ef56.json``) so ``repro runs``
can render the trajectory of a metric across recorded runs in recording
order.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional

from ..doc import BENCH, canonical, lookup
from ..stats.tables import format_table

SCHEMA = "repro.ledger/v1"

#: default ledger directory, relative to the working tree
DEFAULT_DIR = os.path.join("benchmarks", "ledger")


def resolve_dir(directory: Optional[str] = None) -> str:
    """The ledger directory: explicit arg > $REPRO_LEDGER_DIR > default."""
    return directory or os.environ.get("REPRO_LEDGER_DIR") or DEFAULT_DIR

#: manifest fields hashed into the manifest fingerprint (everything a
#: deterministic re-run reproduces; wall_s/host_cpus deliberately out)
FINGERPRINT_FIELDS = (
    "schema", "verb", "label", "seed", "workers", "args",
    "doc_schema", "doc_fingerprint", "headline",
)

#: every field a valid manifest carries
REQUIRED_FIELDS = FINGERPRINT_FIELDS + ("wall_s", "host_cpus", "fingerprint")


def manifest_fingerprint(manifest: Dict[str, object]) -> str:
    """sha256 over the canonical deterministic subset of a manifest."""
    body = {field: manifest.get(field) for field in FINGERPRINT_FIELDS}
    return hashlib.sha256(canonical(body).encode()).hexdigest()


# ----------------------------------------------------------------------
# per-verb headline extraction
# ----------------------------------------------------------------------


def _headline_bench(doc: Dict[str, object]) -> Dict[str, object]:
    figures = doc.get("figures", {})
    out: Dict[str, object] = {"figures": len(figures)}
    before = lookup(figures, "obs_trace", "before", "ops_per_sec")
    after = lookup(figures, "obs_trace", "after", "ops_per_sec")
    if before is not None:
        out["obs_trace_ops_before"] = before
    if after is not None:
        out["obs_trace_ops_after"] = after
    return out


def _headline_fleet(doc: Dict[str, object]) -> Dict[str, object]:
    return {
        "jobs_completed": lookup(doc, "jobs", "completed"),
        "migrated_bytes": lookup(doc, "migration", "payload_bytes"),
        "fg_read_p99_s": lookup(doc, "foreground", "read_p99_s"),
        "budget_ok": lookup(doc, "migration", "budget_ok"),
    }


def _headline_slo(doc: Dict[str, object]) -> Dict[str, object]:
    slos = doc.get("slos", {})
    out: Dict[str, object] = {"slos": len(slos), "alerts": len(doc.get("alerts", []))}
    if isinstance(slos, dict):
        for name in sorted(slos):
            compliance = lookup(slos, name, "compliance")
            if compliance is not None:
                out[f"{name}_compliance"] = compliance
    return out


def _headline_replay(doc: Dict[str, object]) -> Dict[str, object]:
    return {
        "ops_per_vsec": lookup(doc, "figures", "ops_per_vsec"),
        "read_mbps": lookup(doc, "figures", "read_mbps"),
        "cache_hit_ratio": lookup(doc, "figures", "cache_hit_ratio"),
    }


def _headline_faults(doc: Dict[str, object]) -> Dict[str, object]:
    out: Dict[str, object] = {
        "ok": doc.get("ok"),
        "sweeps": len(doc.get("sweeps") or []),
        "faults_injected": lookup(doc, "campaign", "faults_injected"),
        "data_intact": lookup(doc, "campaign", "data_intact"),
    }
    trials = lookup(doc, "series", "trials")
    if trials is not None:
        out["trials"] = trials
    return out


_HEADLINES = {
    "bench": _headline_bench,
    "fleet": _headline_fleet,
    "slo": _headline_slo,
    "replay": _headline_replay,
    "faults": _headline_faults,
}

#: the verbs that record runs, in ``repro runs --verb`` order
VERBS = tuple(_HEADLINES)


def headline(verb: str, document: Dict[str, object]) -> Dict[str, object]:
    """The small per-verb figure set a manifest carries (fingerprinted)."""
    extractor = _HEADLINES.get(verb)
    if extractor is None:
        return {}
    return {k: v for k, v in extractor(document).items() if v is not None}


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------


def doc_fingerprint(document: Dict[str, object]) -> Optional[str]:
    """The identity of a document's results.

    BENCH stores its config hash as ``fingerprint``, so two runs whose
    figures differ would share it; the BENCH result hash is recorded
    instead.  The faults document carries its fingerprint on the campaign.
    """
    if document.get("schema") == BENCH.schema:
        return BENCH.fingerprint(document)
    return document.get("fingerprint") or lookup(document, "campaign", "fingerprint")


def build_manifest(
    verb: str,
    document: Dict[str, object],
    *,
    label: str = "local",
    seed: Optional[int] = None,
    workers: Optional[int] = None,
    args: Optional[Dict[str, object]] = None,
    wall_s: float = 0.0,
) -> Dict[str, object]:
    manifest: Dict[str, object] = {
        "schema": SCHEMA,
        "verb": verb,
        "label": label,
        "seed": seed,
        "workers": workers,
        "args": dict(args or {}),
        "doc_schema": document.get("schema"),
        "doc_fingerprint": doc_fingerprint(document),
        "headline": headline(verb, document),
        "wall_s": round(float(wall_s), 3),
        "host_cpus": os.cpu_count() or 1,
    }
    manifest["fingerprint"] = manifest_fingerprint(manifest)
    return manifest


def record_run(
    verb: str,
    document: Dict[str, object],
    *,
    label: str = "local",
    seed: Optional[int] = None,
    workers: Optional[int] = None,
    args: Optional[Dict[str, object]] = None,
    wall_s: float = 0.0,
    directory: Optional[str] = None,
) -> str:
    """Append one manifest to the ledger; returns the path written."""
    directory = resolve_dir(directory)
    os.makedirs(directory, exist_ok=True)
    manifest = build_manifest(
        verb, document, label=label, seed=seed, workers=workers,
        args=args, wall_s=wall_s,
    )
    # one past the highest number on disk, so the gap a deleted manifest
    # leaves never makes two manifests share a number
    prefixes = [n.split("_")[0] for n in os.listdir(directory) if n.endswith(".json")]
    seq = 1 + max((int(p) for p in prefixes if p.isdigit()), default=-1)
    name = f"{seq:06d}_{verb}_{manifest['fingerprint'][:12]}.json"
    path = os.path.join(directory, name)
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ----------------------------------------------------------------------
# querying
# ----------------------------------------------------------------------


def validate_manifest(manifest: Dict[str, object]) -> None:
    """Raise ``ValueError`` on a malformed or tampered manifest."""
    if manifest.get("schema") != SCHEMA:
        raise ValueError(
            f"unsupported ledger schema {manifest.get('schema')!r} "
            f"(want {SCHEMA!r})"
        )
    missing = [f for f in REQUIRED_FIELDS if f not in manifest]
    if missing:
        raise ValueError(f"manifest missing fields: {', '.join(missing)}")
    expected = manifest_fingerprint(manifest)
    if manifest["fingerprint"] != expected:
        raise ValueError(
            f"manifest fingerprint mismatch: recorded "
            f"{manifest['fingerprint']!r}, recomputed {expected!r}"
        )


def list_runs(
    directory: Optional[str] = None, verb: Optional[str] = None
) -> List[Dict[str, object]]:
    """Every recorded manifest in recording (filename) order.

    Each returned dict gains a non-schema ``path`` key for display.
    Malformed files raise — a corrupt ledger should be loud, not
    silently skipped.
    """
    directory = resolve_dir(directory)
    if not os.path.isdir(directory):
        return []
    runs: List[Dict[str, object]] = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(directory, name)
        with open(path) as fh:
            manifest = json.load(fh)
        validate_manifest(manifest)
        if verb is not None and manifest.get("verb") != verb:
            continue
        manifest["path"] = path
        runs.append(manifest)
    return runs


def _figures(run: Dict[str, object]) -> Dict[str, object]:
    """What the tables show: a run's headline, plus the unfingerprinted
    ``timings`` that manifests recorded by the retired ``perf`` verb
    still carry."""
    return {**run.get("headline", {}), **run.get("timings", {})}


def runs_table(runs: List[Dict[str, object]]) -> str:
    """One-line-per-run summary table (``repro runs list``)."""
    rows = []
    for run in runs:
        head = _figures(run)
        summary = " ".join(
            f"{key}={_fmt(value)}" for key, value in sorted(head.items())
        )
        rows.append([
            os.path.basename(str(run.get("path", ""))).split("_")[0],
            run["verb"], run["label"],
            run["seed"] if run["seed"] is not None else "-",
            run["workers"] if run["workers"] is not None else "-",
            run["wall_s"], str(run["doc_fingerprint"])[:12], summary,
        ])
    return format_table(
        ["seq", "verb", "label", "seed", "workers", "wall_s",
         "doc_fingerprint", "headline"],
        rows,
    )


def trajectory_table(runs: List[Dict[str, object]]) -> str:
    """Headline figures across runs, one row per run, one column per
    headline key (``repro runs trajectory``)."""
    keys: List[str] = []
    for run in runs:
        for key in sorted(_figures(run)):
            if key not in keys:
                keys.append(key)
    rows = []
    for run in runs:
        head = _figures(run)
        rows.append(
            [os.path.basename(str(run.get("path", ""))).split("_")[0],
             run["verb"], run["label"], run["wall_s"]]
            + [_fmt(head.get(key, "-")) for key in keys]
        )
    return format_table(["seq", "verb", "label", "wall_s"] + keys, rows)


def _fmt(value: object) -> object:
    if isinstance(value, float):
        return f"{value:.6g}"
    return value
