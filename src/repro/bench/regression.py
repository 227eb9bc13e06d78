"""Persistent benchmark documents (``repro.bench/v1``).

``repro bench`` serialises one suite run into ``BENCH_<label>.json``:
per-figure throughput numbers, split-fanout histogram summaries, and the
latency-attribution breakdown per variant, fingerprinted with the exact
suite configuration so two documents are only ever compared
like-for-like.  Persistence and the per-component, direction-aware
regression compare are the BENCH type in :mod:`repro.doc`.
"""

from __future__ import annotations

from typing import Dict

from ..doc import BENCH, digest

#: document schema tag; bump on incompatible layout changes
SCHEMA = BENCH.schema

save, load, compare = BENCH.save, BENCH.load, BENCH.compare

#: short stable hash of the suite configuration (seeds, sizes, ...)
config_fingerprint = digest


def build_document(
    label: str,
    config: Dict[str, object],
    figures: Dict[str, Dict[str, Dict[str, object]]],
) -> Dict[str, object]:
    """Assemble a BENCH document: ``figures[figure][variant] -> summary``.

    Each variant summary is a flat dict that may carry ``throughput_mbps``
    (or other headline numbers), a ``split_fanout`` summary, and an
    ``attribution`` sub-document (``Attribution.to_dict()``).
    """
    return {
        "schema": SCHEMA,
        "label": label,
        "config": dict(config),
        "fingerprint": config_fingerprint(config),
        "figures": figures,
    }
