"""The shared document layer: persistence, fingerprints and missing paths
for the BENCH, FLEET, REPLAY and SLO document types."""

from __future__ import annotations

import copy
import os

import pytest

from repro import doc
from repro.bench.suite import build_document

TYPES = {"bench": doc.BENCH, "fleet": doc.FLEET, "replay": doc.REPLAY,
         "slo": doc.SLO}

BASELINE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "baselines", "BENCH_ci_baseline.json",
)


@pytest.mark.parametrize("kind", sorted(TYPES))
def test_save_load_round_trip_and_schema_gate(kind, sample_documents, tmp_path):
    doc_type = TYPES[kind]
    document = sample_documents[kind]
    assert doc_type.kind == kind
    assert document["schema"] == doc_type.schema

    first, second = tmp_path / "first.json", tmp_path / "second.json"
    doc_type.save(str(first), document)
    loaded = doc_type.load(str(first))
    assert loaded == document
    doc_type.save(str(second), loaded)
    assert first.read_bytes() == second.read_bytes()

    for other in TYPES.values():
        if other is doc_type:
            continue
        foreign = tmp_path / f"foreign_{other.kind}.json"
        other.save(str(foreign), {"schema": other.schema})
        message = (f"unsupported {kind} schema '{other.schema}' "
                   f"\\(want '{doc_type.schema}'\\)")
        with pytest.raises(ValueError, match=message):
            doc_type.load(str(foreign))


@pytest.mark.parametrize("kind", sorted(TYPES))
def test_stored_fingerprints(kind, sample_documents):
    document = sample_documents[kind]
    if kind == "bench":
        # BENCH stores the config hash; rebuilding the committed baseline
        # from its parts reproduces the file byte for byte
        assert document["fingerprint"] == doc.digest(document["config"])
        rebuilt = build_document(
            document["label"], document["config"], document["figures"]
        )
        with open(BASELINE) as fh:
            assert doc.dumps(rebuilt) == fh.read()
        # the result hash is a different thing: it sees the figures
        assert TYPES[kind].fingerprint(document) != document["fingerprint"]
    else:
        assert document["fingerprint"] == TYPES[kind].fingerprint(document)


#: one compared leaf per type: (path, finding metric, finding variant)
MISSING = {
    "bench": (("figures", "obs_trace", "before", "ops_per_sec"),
              "ops_per_sec", "before"),
    "fleet": (("foreground", "read_p99_s"), "fg_read_p99_s", "slo"),
    "replay": (("figures", "read_mbps"), "read_mbps", "stream"),
    "slo": (("slos", "fg_read_latency", "compliance"), "compliance",
            "fg_read_latency"),
}


def _drop(document, path):
    document = copy.deepcopy(document)
    node = document
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    return document


@pytest.mark.parametrize("kind", sorted(TYPES))
@pytest.mark.parametrize("side", ["baseline", "candidate"])
def test_a_path_missing_from_one_document_is_skipped_with_a_warning(
    kind, side, sample_documents
):
    """FLEET and REPLAY used to read a missing value as 0.0 (a -100 %
    finding) and SLO raised ``KeyError``; every type now skips it."""
    doc_type = TYPES[kind]
    full = sample_documents[kind]
    path, metric, variant = MISSING[kind]
    partial = _drop(full, path)
    if side == "baseline":
        comparison = doc_type.compare(partial, full)
    else:
        comparison = doc_type.compare(full, partial)
    assert comparison.warnings == [f"{'.'.join(path)} missing from {side}"]
    assert comparison.ok
    whole = doc_type.compare(full, full).findings
    kept = [f for f in whole if (f.metric, f.variant) != (metric, variant)]
    assert len(kept) == len(whole) - 1
    assert comparison.findings == kept

