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
- :mod:`workload` — replay as a first-class workload: bench-pluggable
  :class:`ReplayWorkload` and the fleet's ``trace:<path>`` stream.
"""

from .formats import (
    BINARY_MAGIC,
    BINARY_VERSION,
    FORMATS,
    RECORD_SIZE,
    BinaryTraceReader,
    BinaryTraceWriter,
    BlktraceTextReader,
    CsvTraceReader,
    ParseStats,
    TraceReader,
    open_trace,
    sniff_format,
)
from .generate import TraceProfile, generate_ops, generate_trace
from .reconstruct import (
    DEFAULT_FILE_CAP,
    PlacementPolicy,
    ReconstructionStats,
    Reconstructor,
)
from .report import (
    SCHEMA,
    ReplayConfig,
    ReplayResult,
    compare,
    fingerprint,
    run_replay,
    validate,
)
from .workload import ReplayWorkload, cycling_ops, parse_trace_workload

__all__ = [
    "BINARY_MAGIC",
    "BINARY_VERSION",
    "FORMATS",
    "RECORD_SIZE",
    "BinaryTraceReader",
    "BinaryTraceWriter",
    "BlktraceTextReader",
    "CsvTraceReader",
    "ParseStats",
    "TraceReader",
    "open_trace",
    "sniff_format",
    "TraceProfile",
    "generate_ops",
    "generate_trace",
    "DEFAULT_FILE_CAP",
    "PlacementPolicy",
    "ReconstructionStats",
    "Reconstructor",
    "SCHEMA",
    "ReplayConfig",
    "ReplayResult",
    "compare",
    "fingerprint",
    "run_replay",
    "validate",
    "ReplayWorkload",
    "cycling_ops",
    "parse_trace_workload",
]
