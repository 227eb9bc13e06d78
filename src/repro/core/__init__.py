"""FragPicker — the paper's contribution.

Two phases (Figure 5):

- **analysis** (:mod:`repro.core.analysis`): trace I/O syscalls, build
  per-file range lists (readahead imitation + Algorithm 1 overlap merge),
  filter by hotness.
- **migration** (:mod:`repro.core.migration`): FIEMAP fragmentation check,
  then rewrite — directly for out-of-place filesystems, or punch +
  fallocate + rewrite for in-place filesystems — using only generic
  syscalls, which keeps the tool filesystem-agnostic.

:class:`~repro.core.fragpicker.FragPicker` orchestrates both.
"""

from .range_list import FileRange, FileRangeList, merge_overlapped
from .analysis import AnalysisPhase
from .hotness import hotness_filter
from .bypass import bypass_range_list
from .frag_check import range_is_fragmented
from .migration import Migrator, RetryPolicy
from .recovery import MigrationJournal, RecoveryReport
from .fragpicker import FragPicker, FragPickerConfig, MigrationCursor
from .report import DefragReport

__all__ = [
    "FileRange",
    "FileRangeList",
    "merge_overlapped",
    "AnalysisPhase",
    "hotness_filter",
    "bypass_range_list",
    "range_is_fragmented",
    "Migrator",
    "RetryPolicy",
    "MigrationJournal",
    "RecoveryReport",
    "FragPicker",
    "FragPickerConfig",
    "MigrationCursor",
    "DefragReport",
]
