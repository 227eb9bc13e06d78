"""``repro.replay`` — streaming trace ingestion and workload reconstruction.

The pipeline, in the order a ``repro replay`` run uses it:

- :mod:`formats` — streaming parsers for blktrace-style text, CSV, and
  the compact ``repro.replay/v1`` binary format, plus the binary writer.
  All readers are generators with per-stream :class:`ParseStats`; bad
  input is repaired-and-counted, never silently dropped.
- :mod:`generate` — seed-keyed synthetic corpora in the binary format
  (real traces are not redistributable; CI generates its own).
- :mod:`reconstruct` — lifts raw records onto the live simulated
  filesystem through real syscalls, so cache hits, readahead, delayed
  allocation, and request splitting are re-decided by *this* stack.
- :mod:`report` — the ``run_replay`` pipeline and its fingerprinted
  ``repro.replay/v1`` document.
- :mod:`workload` — the fleet's ``trace:<path>`` foreground stream.
"""

from ..exports import lazy_exports

_EXPORTS = {
    "BINARY_MAGIC": "formats",
    "BINARY_VERSION": "formats",
    "FORMATS": "formats",
    "RECORD_SIZE": "formats",
    "BinaryTraceReader": "formats",
    "BinaryTraceWriter": "formats",
    "BlktraceTextReader": "formats",
    "CsvTraceReader": "formats",
    "ParseStats": "formats",
    "TraceReader": "formats",
    "open_trace": "formats",
    "sniff_format": "formats",
    "TraceProfile": "generate",
    "generate_ops": "generate",
    "generate_trace": "generate",
    "DEFAULT_FILE_CAP": "reconstruct",
    "PlacementPolicy": "reconstruct",
    "ReconstructionStats": "reconstruct",
    "Reconstructor": "reconstruct",
    "SCHEMA": "report",
    "ReplayConfig": "report",
    "ReplayResult": "report",
    "compare": "report",
    "fingerprint": "report",
    "run_replay": "report",
    "validate": "report",
    "cycling_ops": "workload",
    "parse_trace_workload": "workload",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
