"""Shared wiring for CLI verbs that persist comparable JSON documents.

``bench``, ``fleet`` and ``replay`` all follow the same contract: run a
suite, save a schema-tagged document whose fingerprint makes runs
comparable, and (with ``--compare``) diff two such documents with a
direction-aware threshold.  ``fleet`` saves two document types, FLEET
and (with ``--slo-json``) SLO, and compares either.  The argument set
and the compare flow are identical across verbs — this module holds
them once.
"""

from __future__ import annotations

import argparse
import json
from typing import Optional, Tuple

from .doc import DocType


#: default relative regression threshold for ``--compare``
THRESHOLD = 0.10


def add_document_args(parser: argparse.ArgumentParser, prefix: str) -> None:
    """Attach the --label/--json/--compare/--threshold/--warn-only set.

    ``prefix`` names the document (``BENCH``) and its default path
    (``BENCH_<label>.json``).
    """
    parser.add_argument(
        "--label", default=None,
        help="document label (default: 'smoke' or 'full')",
    )
    parser.add_argument(
        "--json", nargs="?", const=None, default=None, metavar="PATH",
        help=f"write the {prefix} document here "
             f"(default: {prefix}_<label>.json)",
    )
    parser.add_argument(
        "--compare", nargs=2, metavar=("BASELINE", "CANDIDATE"),
        help=f"compare two {prefix} documents instead of running; "
             "exits 1 when a regression exceeds the threshold",
    )
    parser.add_argument(
        "--threshold", type=float, default=THRESHOLD,
        help=f"relative regression threshold (default {THRESHOLD:.2f})",
    )
    parser.add_argument(
        "--warn-only", action="store_true",
        help="report regressions but always exit 0",
    )


def add_workers_arg(
    parser: argparse.ArgumentParser,
    help: str = ("shard the run across N worker processes (default: serial; "
                 "output is byte-identical either way)"),
) -> None:
    """Attach the shared ``--workers N`` flag (default: serial path).

    Two verbs take it, both routed through :mod:`repro.par`.  For bench
    the shard-order merge makes the parallel output byte-identical to
    serial.  For ``replay --generate`` any ``--workers`` selects the
    chunked corpus scheme, a different corpus than the serial stream for
    the same seed (though the same for every worker count), so that verb
    passes its own ``help``.
    """
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N", help=help,
    )


def add_ledger_args(parser: argparse.ArgumentParser) -> None:
    """Attach the run-ledger flags every document verb shares.

    Each run appends a fingerprinted manifest to the persistent ledger
    (``repro runs`` queries it); ``--no-ledger`` opts a run out.
    """
    parser.add_argument(
        "--ledger-dir", default=None, metavar="DIR",
        help="run-ledger directory (default: $REPRO_LEDGER_DIR or "
             "benchmarks/ledger)",
    )
    parser.add_argument(
        "--no-ledger", action="store_true",
        help="do not append this run's manifest to the run ledger",
    )


def record_ledger(
    args: argparse.Namespace,
    verb: str,
    document: dict,
    *,
    label: str = "local",
    seed: Optional[int] = None,
    wall_s: float = 0.0,
    extra: Optional[dict] = None,
) -> Optional[str]:
    """Append this run's manifest to the ledger (unless --no-ledger)."""
    if getattr(args, "no_ledger", False):
        return None
    from .obs import ledger

    path = ledger.record_run(
        verb, document, label=label, seed=seed,
        workers=getattr(args, "workers", None),
        args=extra, wall_s=wall_s,
        directory=getattr(args, "ledger_dir", None),
    )
    print(f"recorded run manifest {path}")
    return path


def document_path(args: argparse.Namespace, prefix: str) -> Tuple[str, str]:
    """Resolve the (label, output path) pair for a document run."""
    label = args.label or ("smoke" if getattr(args, "smoke", False) else "full")
    path = args.json or f"{prefix}_{label}.json"
    return label, path


def run_compare(args: argparse.Namespace, *doc_types: DocType) -> Optional[int]:
    """Execute the --compare flow if requested; None means "not asked".

    With several document types the baseline's ``schema`` picks one (the
    first when none matches), and ``load`` rejects a candidate of another
    schema.
    """
    if not args.compare:
        return None
    doc_type = doc_types[0]
    if len(doc_types) > 1:
        with open(args.compare[0]) as fh:
            schema = json.load(fh).get("schema")
        doc_type = next((t for t in doc_types if t.schema == schema), doc_type)
    baseline = doc_type.load(args.compare[0])
    candidate = doc_type.load(args.compare[1])
    comparison = doc_type.compare(baseline, candidate, threshold=args.threshold)
    print(comparison.report())
    if comparison.ok or args.warn_only:
        return 0
    return 1
