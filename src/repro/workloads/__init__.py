"""Workloads and application substrates used by the paper's evaluation.

- :mod:`synthetic` — the Section 5.2 fragmented-file factory and
  sequential/stride readers/updaters.
- :mod:`kvstore` + :mod:`ycsb` — a RocksDB-like LSM store driven by
  YCSB-style operation streams (Figures 2 and 10).
- :mod:`sqlite_like` — a journaled paged database (Section 5.3.2).
- :mod:`fileserver` — Filebench-fileserver-like file set plus the
  recursive-grep measurement (Figure 11).
- :mod:`fio` — a simple sequential writer (co-running interference).
- :mod:`aging` — free-space aging (the Dabre-profile substitute).
"""

from ..exports import lazy_exports

_EXPORTS = {
    "UniformKeys": "distributions",
    "ZipfianKeys": "distributions",
    "FragmentSpec": "synthetic",
    "make_fragmented_file": "synthetic",
    "make_paper_synthetic_file": "synthetic",
    "sequential_read": "synthetic",
    "sequential_update": "synthetic",
    "stride_read": "synthetic",
    "stride_update": "synthetic",
    "age_filesystem": "aging",
    "LsmStore": "kvstore",
    "LsmConfig": "kvstore",
    "YcsbConfig": "ycsb",
    "YcsbWorkload": "ycsb",
    "WORKLOAD_A": "ycsb",
    "WORKLOAD_C": "ycsb",
    "SqliteLike": "sqlite_like",
    "SqliteConfig": "sqlite_like",
    "FileServer": "fileserver",
    "FileServerConfig": "fileserver",
    "grep_directory": "fileserver",
    "fio_sequential_writer": "fio",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
