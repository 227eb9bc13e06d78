"""Records moved off ``@dataclass`` behave as the dataclasses did.

Each case builds one record positionally and by keyword, and pins the
``repr`` its ``@dataclass`` definition printed (every literal below was
printed by it), the record its defaults build, its equality, its
pickling and its copies.  The ``to_dict``/``snapshot``/``delta`` outputs
that documents and reports are built from are pinned the same way.
"""

import copy
import pickle
from typing import NamedTuple, Optional

import pytest

from repro.errors import InvalidArgument
from repro.types import Record


class Case(NamedTuple):
    imports: str
    positional: str
    keyword: str
    #: ``repr`` of the positional record
    pinned: str
    #: the record every default builds, and its ``repr``
    default: Optional[str]
    pinned_default: Optional[str]


CASES = [
    Case(
        'from repro.block.tracer import TrafficCounter',
        'TrafficCounter(1, 2, 3, 4, 5, 6)',
        ('TrafficCounter(read_bytes=1, write_bytes=2, discard_bytes=3, read_commands=4, '
         'write_commands=5, discard_commands=6)'),
        ('TrafficCounter(read_bytes=1, write_bytes=2, discard_bytes=3, read_commands=4, '
         'write_commands=5, discard_commands=6)'),
        'TrafficCounter()',
        ('TrafficCounter(read_bytes=0, write_bytes=0, discard_bytes=0, read_commands=0, '
         'write_commands=0, discard_commands=0)'),
    ),
    Case(
        'from repro.device.base import DeviceStats',
        'DeviceStats(1, 2, 3, 4, 5, 6, 0.5)',
        ('DeviceStats(read_bytes=1, write_bytes=2, discard_bytes=3, read_commands=4, '
         'write_commands=5, discard_commands=6, busy_time=0.5)'),
        ('DeviceStats(read_bytes=1, write_bytes=2, discard_bytes=3, read_commands=4, '
         'write_commands=5, discard_commands=6, busy_time=0.5)'),
        'DeviceStats()',
        ('DeviceStats(read_bytes=0, write_bytes=0, discard_bytes=0, read_commands=0, '
         'write_commands=0, discard_commands=0, busy_time=0.0)'),
    ),
    Case(
        'from repro.device.ftl import EraseBlock; from array import array',
        "EraseBlock(1, 256, array('i', [3, 4]), 2, 7)",
        ("EraseBlock(channel=1, base=256, pages=array('i', [3, 4]), valid_count=2, "
         "erase_count=7)"),
        ("EraseBlock(channel=1, base=256, pages=array('i', [3, 4]), valid_count=2, "
         "erase_count=7)"),
        "EraseBlock(0, 0, array('i'))",
        "EraseBlock(channel=0, base=0, pages=array('i'), valid_count=0, erase_count=0)",
    ),
    Case(
        'from repro.fs.page_cache import PageCacheStats',
        'PageCacheStats(3, 1)',
        'PageCacheStats(hits=3, misses=1)',
        'PageCacheStats(hits=3, misses=1)',
        'PageCacheStats()',
        'PageCacheStats(hits=0, misses=0)',
    ),
    Case(
        'from repro.fs.readahead import ReadaheadState',
        'ReadaheadState(65536, 4096, 8192)',
        'ReadaheadState(window_size=65536, _next_expected=4096, _window_end=8192)',
        'ReadaheadState(window_size=65536, _next_expected=4096, _window_end=8192)',
        'ReadaheadState()',
        'ReadaheadState(window_size=131072, _next_expected=-1, _window_end=0)',
    ),
    Case(
        'from repro.fs.free_space import FreeSpaceStats',
        'FreeSpaceStats(4096, 2, 2048)',
        'FreeSpaceStats(free_bytes=4096, run_count=2, largest_run=2048)',
        'FreeSpaceStats(free_bytes=4096, run_count=2, largest_run=2048)',
        None,
        None,
    ),
    Case(
        'from repro.fs.fiemap import FiemapExtent',
        'FiemapExtent(0, 4096, 8192, True)',
        'FiemapExtent(logical=0, physical=4096, length=8192, is_last=True)',
        'FiemapExtent(logical=0, physical=4096, length=8192, is_last=True)',
        None,
        None,
    ),
    Case(
        'from repro.core.range_list import FileRange',
        'FileRange(0, 4096, 3)',
        'FileRange(start=0, end=4096, count=3)',
        'FileRange(start=0, end=4096, count=3)',
        'FileRange(0, 4096)',
        'FileRange(start=0, end=4096, count=1)',
    ),
    Case(
        'from repro.core.range_list import FileRange, FileRangeList',
        "FileRangeList(7, '/f', [FileRange(0, 4096)])",
        "FileRangeList(ino=7, path='/f', ranges=[FileRange(start=0, end=4096)])",
        ("FileRangeList(ino=7, path='/f', ranges=[FileRange(start=0, end=4096, "
         "count=1)])"),
        "FileRangeList(7, '/f')",
        "FileRangeList(ino=7, path='/f', ranges=[])",
    ),
    Case(
        'from repro.core.analysis import AnalysisPhase',
        'AnalysisPhase(False, False)',
        'AnalysisPhase(imitate_readahead=False, merge=False)',
        'AnalysisPhase(imitate_readahead=False, merge=False)',
        'AnalysisPhase()',
        'AnalysisPhase(imitate_readahead=True, merge=True)',
    ),
    Case(
        'from repro.core.recovery import JournalEntry',
        "JournalEntry('/f', 7, 4096, 8192, b'xy')",
        "JournalEntry(path='/f', ino=7, offset=4096, length=8192, data=b'xy')",
        "JournalEntry(path='/f', ino=7, offset=4096, length=8192, data=b'xy')",
        None,
        None,
    ),
    Case(
        'from repro.core.recovery import RecoveryReport',
        'RecoveryReport(2, 8192, 1)',
        'RecoveryReport(entries_replayed=2, bytes_restored=8192, entries_skipped=1)',
        'RecoveryReport(entries_replayed=2, bytes_restored=8192, entries_skipped=1)',
        'RecoveryReport()',
        'RecoveryReport(entries_replayed=0, bytes_restored=0, entries_skipped=0)',
    ),
    Case(
        'from repro.core.migration import MigrationOutcome',
        'MigrationOutcome(1.5, 4096)',
        'MigrationOutcome(finish_time=1.5, moved_bytes=4096)',
        'MigrationOutcome(finish_time=1.5, moved_bytes=4096)',
        None,
        None,
    ),
    Case(
        'from repro.bench.harness import ObsWindow',
        "ObsWindow({'m': {'kind': 'counter'}}, {'ok': True})",
        "ObsWindow(metrics={'m': {'kind': 'counter'}}, attribution={'ok': True})",
        "ObsWindow(metrics={'m': {'kind': 'counter'}}, attribution={'ok': True})",
        'ObsWindow()',
        'ObsWindow(metrics=None, attribution=None)',
    ),
    Case(
        'from repro.bench.experiments.synthetic_defrag import SyntheticCell',
        'SyntheticCell(120.5, 1.0, 2.0, 0.25, 3, None)',
        ('SyntheticCell(throughput_mbps=120.5, defrag_write_mb=1.0, defrag_read_mb=2.0, '
         'defrag_elapsed=0.25, fragments_after=3, obs=None)'),
        ('SyntheticCell(throughput_mbps=120.5, defrag_write_mb=1.0, defrag_read_mb=2.0, '
         'defrag_elapsed=0.25, fragments_after=3, obs=None)'),
        'SyntheticCell(120.5)',
        ('SyntheticCell(throughput_mbps=120.5, defrag_write_mb=0.0, defrag_read_mb=0.0, '
         'defrag_elapsed=0.0, fragments_after=0, obs=None)'),
    ),
    Case(
        'from repro.bench.experiments.synthetic_defrag import SyntheticResult',
        "SyntheticResult('ext4', 'optane', 4096, {'conv': {}})",
        ("SyntheticResult(fs_type='ext4', device='optane', file_size=4096, "
         "cells={'conv': {}})"),
        ("SyntheticResult(fs_type='ext4', device='optane', file_size=4096, "
         "cells={'conv': {}})"),
        "SyntheticResult('ext4', 'optane', 4096)",
        "SyntheticResult(fs_type='ext4', device='optane', file_size=4096, cells={})",
    ),
    Case(
        'from repro.obs.analysis import Attribution',
        "Attribution({'fs_cpu': 0.5}, 1.0, 2, {'fs_cpu': 'host'})",
        ("Attribution(components={'fs_cpu': 0.5}, total=1.0, syscalls=2, "
         "descriptions={'fs_cpu': 'host'})"),
        ("Attribution(components={'fs_cpu': 0.5}, total=1.0, syscalls=2, "
         "descriptions={'fs_cpu': 'host'})"),
        'Attribution({}, 0.0)',
        'Attribution(components={}, total=0.0, syscalls=0, descriptions={})',
    ),
    Case(
        'from repro.doc import Finding',
        "Finding('fig', 'v', 'm', 1.0, 2.0, 1.0, True)",
        ("Finding(figure='fig', variant='v', metric='m', baseline=1.0, candidate=2.0, "
         "change=1.0, regression=True)"),
        ("Finding(figure='fig', variant='v', metric='m', baseline=1.0, candidate=2.0, "
         "change=1.0, regression=True)"),
        None,
        None,
    ),
    Case(
        'from repro.doc import Comparison',
        "Comparison('a', 'b', 0.1, [], ['w'], 'fleet')",
        ("Comparison(baseline_label='a', candidate_label='b', threshold=0.1, "
         "findings=[], warnings=['w'], kind='fleet')"),
        ("Comparison(baseline_label='a', candidate_label='b', threshold=0.1, "
         "findings=[], warnings=['w'], kind='fleet')"),
        "Comparison('a', 'b', 0.1)",
        ("Comparison(baseline_label='a', candidate_label='b', threshold=0.1, "
         "findings=[], warnings=[], kind='bench')"),
    ),
    Case(
        'from repro.doc import DocType',
        ("DocType('s/v1', 'k', ('fingerprint',), ('seed',), {'m': ('a.b', 'lower')}, "
         "('label',), (), 1e-12)"),
        ("DocType(schema='s/v1', kind='k', unhashed=('fingerprint',), "
         "identity=('seed',), compared={'m': ('a.b', 'lower')}, label=('label',), "
         "where=(), zero=1e-12)"),
        ("DocType(schema='s/v1', kind='k', unhashed=('fingerprint',), "
         "identity=('seed',), compared={'m': ('a.b', 'lower')}, label=('label',), "
         "where=(), zero=1e-12)"),
        "DocType('s/v1', 'k', (), (), {})",
        ("DocType(schema='s/v1', kind='k', unhashed=(), identity=(), compared={}, "
         "label=('label',), where=(), zero=1e-12)"),
    ),
    Case(
        'from repro.stats.timeline import Timeline',
        'Timeline([(0.5, 1.0)])',
        'Timeline(events=[(0.5, 1.0)])',
        'Timeline(events=[(0.5, 1.0)])',
        'Timeline()',
        'Timeline(events=[])',
    ),
    Case(
        'from repro.stats.timeline import Series',
        "Series('s', [0.0], [1.0])",
        "Series(name='s', times=[0.0], values=[1.0])",
        "Series(name='s', times=[0.0], values=[1.0])",
        "Series('s')",
        "Series(name='s', times=[], values=[])",
    ),
    Case(
        ('from repro.sim.engine import ActorContext; from repro.stats.timeline import '
         'Timeline'),
        "ActorContext('a', 1.5, Timeline(), 2.5)",
        "ActorContext(name='a', now=1.5, timeline=Timeline(), finished_at=2.5)",
        "ActorContext(name='a', now=1.5, timeline=Timeline(events=[]), finished_at=2.5)",
        "ActorContext('a')",
        ("ActorContext(name='a', now=0.0, timeline=Timeline(events=[]), "
         "finished_at=None)"),
    ),
    Case(
        'from repro.fleet.report import TickRow',
        'TickRow(1, 2, 3, 4, 5, 6, 7)',
        ('TickRow(tick=1, volumes_above=2, migrated_bytes=3, jobs_running=4, '
         'jobs_admitted=5, jobs_waiting=6, fg_ops=7)'),
        ('TickRow(tick=1, volumes_above=2, migrated_bytes=3, jobs_running=4, '
         'jobs_admitted=5, jobs_waiting=6, fg_ops=7)'),
        None,
        None,
    ),
    Case(
        'from repro.fleet.report import FleetReport',
        "FleetReport({'seed': 0}, 8)",
        "FleetReport(config={'seed': 0}, volumes=8)",
        ("FleetReport(config={'seed': 0}, volumes=8, ticks=[], jobs_admitted=0, "
         "jobs_completed=0, jobs_failed=0, jobs_still_running=0, jobs_deferred_ticks=0, "
         "jobs_budget_blocked_ticks=0, recovered_entries=0, journal_pending=0, "
         "migrated_payload_bytes=0, defrag_read_bytes=0, defrag_write_bytes=0, "
         "ranges_migrated=0, ranges_failed=0, retries=0, fg_ops=0, fg_errors=0, "
         "fg_read_count=0, fg_read_p50_s=0.0, fg_read_p99_s=0.0, fg_read_mean_s=0.0, "
         "fg_read_max_s=0.0, volumes_above_start=0, volumes_above_end=0, slo=None)"),
        'FleetReport({})',
        ('FleetReport(config={}, volumes=0, ticks=[], jobs_admitted=0, '
         'jobs_completed=0, jobs_failed=0, jobs_still_running=0, jobs_deferred_ticks=0, '
         'jobs_budget_blocked_ticks=0, recovered_entries=0, journal_pending=0, '
         'migrated_payload_bytes=0, defrag_read_bytes=0, defrag_write_bytes=0, '
         'ranges_migrated=0, ranges_failed=0, retries=0, fg_ops=0, fg_errors=0, '
         'fg_read_count=0, fg_read_p50_s=0.0, fg_read_p99_s=0.0, fg_read_mean_s=0.0, '
         'fg_read_max_s=0.0, volumes_above_start=0, volumes_above_end=0, slo=None)'),
    ),
    Case(
        'from repro.replay.formats import ParseStats',
        'ParseStats(1, 2, 3, 4, 5, 0.5, 1.5)',
        ('ParseStats(records=1, malformed=2, zero_length=3, out_of_order=4, filtered=5, '
         'first_time=0.5, last_time=1.5)'),
        ('ParseStats(records=1, malformed=2, zero_length=3, out_of_order=4, filtered=5, '
         'first_time=0.5, last_time=1.5)'),
        'ParseStats()',
        ('ParseStats(records=0, malformed=0, zero_length=0, out_of_order=0, filtered=0, '
         'first_time=0.0, last_time=0.0)'),
    ),
    Case(
        'from repro.replay.reconstruct import ReconstructionStats',
        'ReconstructionStats(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)',
        ('ReconstructionStats(ops_read=1, ops_write=2, ops_fsync=3, bytes_read=4, '
         'bytes_written=5, backfill_bytes=6, files_created=7, clamped=8, realigned=9, '
         'no_space=10, dropped=11)'),
        ('ReconstructionStats(ops_read=1, ops_write=2, ops_fsync=3, bytes_read=4, '
         'bytes_written=5, backfill_bytes=6, files_created=7, clamped=8, realigned=9, '
         'no_space=10, dropped=11)'),
        'ReconstructionStats()',
        ('ReconstructionStats(ops_read=0, ops_write=0, ops_fsync=0, bytes_read=0, '
         'bytes_written=0, backfill_bytes=0, files_created=0, clamped=0, realigned=0, '
         'no_space=0, dropped=0)'),
    ),
    Case(
        'from repro.replay.report import ReplayConfig, ReplayResult',
        "ReplayResult(ReplayConfig(), 'corpus.bin')",
        "ReplayResult(config=ReplayConfig(), trace='corpus.bin')",
        ("ReplayResult(config=ReplayConfig(fs_type='ext4', device='flash', fmt='auto', "
         "pacing='afap', seed=0), trace='corpus.bin', parse=ParseStats(records=0, "
         "malformed=0, zero_length=0, out_of_order=0, filtered=0, first_time=0.0, "
         "last_time=0.0), reconstruction=ReconstructionStats(ops_read=0, ops_write=0, "
         "ops_fsync=0, bytes_read=0, bytes_written=0, backfill_bytes=0, "
         "files_created=0, clamped=0, realigned=0, no_space=0, dropped=0), "
         "elapsed_s=0.0, cache_hits=0, cache_misses=0, device_read_bytes=0, "
         "device_write_bytes=0, device_read_commands=0, device_write_commands=0, "
         "meta_write_bytes=0, split_fanout={}, attribution=None)"),
        None,
        None,
    ),
    Case(
        'from repro.faults import FaultRule',
        "FaultRule('fs.write', 'torn', 'write', (0, 4096), 3, 0.5, 0.25, None, 0.5, 2)",
        ("FaultRule(site='fs.write', kind='torn', op='write', lba=(0, 4096), "
         "after_ops=3, at_time=0.5, probability=0.25, latency=None, torn_fraction=0.5, "
         "max_fires=2)"),
        ("FaultRule(site='fs.write', kind='torn', op='write', lba=(0, 4096), "
         "after_ops=3, at_time=0.5, probability=0.25, latency=None, torn_fraction=0.5, "
         "max_fires=2)"),
        "FaultRule('device.submit', 'io_error')",
        ("FaultRule(site='device.submit', kind='io_error', op=None, lba=None, "
         "after_ops=None, at_time=None, probability=None, latency=None, "
         "torn_fraction=0.5, max_fires=1)"),
    ),
    Case(
        'from repro.faults import FaultPlan, FaultRule',
        "FaultPlan(7, [FaultRule('fs', 'crash', after_ops=1)])",
        "FaultPlan(seed=7, rules=[FaultRule('fs', 'crash', after_ops=1)])",
        ("FaultPlan(seed=7, rules=[FaultRule(site='fs', kind='crash', op=None, "
         "lba=None, after_ops=1, at_time=None, probability=None, latency=None, "
         "torn_fraction=0.5, max_fires=1)])"),
        'FaultPlan()',
        'FaultPlan(seed=0, rules=[])',
    ),
    Case(
        'from repro.faults import FaultPlaneStats',
        "FaultPlaneStats([], {'fs.write.torn': 1})",
        "FaultPlaneStats(fires=[], by_site_kind={'fs.write.torn': 1})",
        "FaultPlaneStats(fires=[], by_site_kind={'fs.write.torn': 1})",
        'FaultPlaneStats()',
        'FaultPlaneStats(fires=[], by_site_kind={})',
    ),
    Case(
        'from repro.core.analysis import _SequentialState',
        '_SequentialState(4096, 135168)',
        '_SequentialState(next_expected=4096, window_end=135168)',
        '_SequentialState(next_expected=4096, window_end=135168)',
        '_SequentialState()',
        '_SequentialState(next_expected=-1, window_end=-1)',
    ),
    Case(
        'from repro.faults import FaultRule; from repro.faults.plane import _RuleState',
        "_RuleState(FaultRule('fs', 'crash', after_ops=1), None, 2, 1)",
        "_RuleState(rule=FaultRule('fs', 'crash', after_ops=1), rng=None, matched=2, fired=1)",
        ("_RuleState(rule=FaultRule(site='fs', kind='crash', op=None, lba=None, after_ops=1, "
         "at_time=None, probability=None, latency=None, torn_fraction=0.5, max_fires=1), "
         "rng=None, matched=2, fired=1)"),
        "_RuleState(FaultRule('fs', 'crash', after_ops=1), None)",
        ("_RuleState(rule=FaultRule(site='fs', kind='crash', op=None, lba=None, after_ops=1, "
         "at_time=None, probability=None, latency=None, torn_fraction=0.5, max_fires=1), "
         "rng=None, matched=0, fired=0)"),
    ),
]


def _eval(case: Case, expr: str) -> object:
    namespace: dict = {}
    exec(case.imports, namespace)
    return eval(expr, namespace)


def _ids(case: Case) -> str:
    return case.positional.split("(")[0]


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_positional_and_keyword_construction_build_the_pinned_record(case):
    record = _eval(case, case.positional)
    assert repr(record) == case.pinned
    assert _eval(case, case.keyword) == record
    assert _eval(case, case.positional) == record


@pytest.mark.parametrize("case", [c for c in CASES if c.default], ids=_ids)
def test_defaults_build_the_pinned_record(case):
    default = _eval(case, case.default)
    assert repr(default) == case.pinned_default
    assert default != _eval(case, case.positional)


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_pickles_and_copies_compare_equal(case):
    record = _eval(case, case.positional)
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record
    assert copy.copy(record) == record


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_mutable_records_are_unhashable_and_immutable_ones_frozen(case):
    record = _eval(case, case.positional)
    assert record != object()
    if isinstance(record, Record):
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert isinstance(record, tuple)
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)


def test_mutable_records_are_slotted_except_the_traffic_counters():
    from repro.block.tracer import TrafficCounter
    from repro.device.base import DeviceStats

    for case in CASES:
        record = _eval(case, case.positional)
        if not isinstance(record, Record):
            continue
        if isinstance(record, TrafficCounter):
            # snapshot() and delta() read the fields through vars()
            assert list(vars(record)) == list(type(record)._fields)
            continue
        with pytest.raises(AttributeError):
            record.not_a_field = 1
    assert DeviceStats._fields[-1] == "busy_time"


def test_equality_requires_the_same_class():
    from repro.block.tracer import TrafficCounter
    from repro.device.base import DeviceStats

    assert TrafficCounter() != DeviceStats()
    assert DeviceStats() == DeviceStats()
    assert DeviceStats(busy_time=0.5) != DeviceStats()


def test_inode_defaults_and_fresh_extent_maps():
    from repro.fs.extent_map import ExtentMap
    from repro.fs.inode import Inode

    extents = ExtentMap()
    inode = Inode(5, "/f", 8192, extents, 2, "fragpicker")
    assert inode == Inode(ino=5, path="/f", size=8192, extent_map=extents, nlink=2,
                          lock_holder="fragpicker")
    assert repr(inode) == (f"Inode(ino=5, path='/f', size=8192, extent_map={extents!r}, "
                           "nlink=2, lock_holder='fragpicker')")
    first, second = Inode(1, "/a"), Inode(2, "/b")
    assert (first.size, first.nlink, first.lock_holder) == (0, 1, None)
    assert first.extent_map is not second.extent_map
    assert first.fragment_count() == 0


def test_default_containers_are_not_shared():
    from repro.bench.experiments.synthetic_defrag import SyntheticResult
    from repro.doc import Comparison
    from repro.faults import FaultPlan, FaultPlaneStats
    from repro.stats.timeline import Series

    assert FaultPlan().rules is not FaultPlan().rules
    assert FaultPlaneStats().fires is not FaultPlaneStats().fires
    assert Comparison("a", "b", 0.1).findings is not Comparison("a", "b", 0.1).findings
    assert Series("s").times is not Series("s").times
    assert SyntheticResult("ext4", "optane", 1).cells is not SyntheticResult("ext4", "optane", 1).cells


def test_validating_records_still_reject_bad_values():
    from repro.core.range_list import FileRange
    from repro.faults import FaultRule

    for bad in (lambda: FileRange(4096, 4096), lambda: FileRange(start=-1, end=8),
                lambda: FileRange(0, 8, 0)):
        with pytest.raises(InvalidArgument):
            bad()
    for bad in (lambda: FaultRule("fs", "melt"),
                lambda: FaultRule(site="fs", kind="io_error", probability=2.0),
                lambda: FaultRule("block.submit", "torn")):
        with pytest.raises(InvalidArgument):
            bad()
    assert FileRange(0, 8192, 2).length == 8192


def test_document_sections_are_pinned():
    from repro.fleet.report import TickRow
    from repro.obs.analysis import Attribution
    from repro.replay.formats import ParseStats
    from repro.replay.reconstruct import ReconstructionStats

    assert TickRow(1, 2, 3, 4, 5, 6, 7).to_dict() == {
        "tick": 1, "volumes_above": 2, "migrated_bytes": 3, "jobs_running": 4,
        "jobs_admitted": 5, "jobs_waiting": 6, "fg_ops": 7,
    }
    assert ParseStats(1, 2, 3, 4, 5, 0.5, 1.5).to_dict() == {
        "records": 1, "malformed": 2, "zero_length": 3, "out_of_order": 4,
        "filtered": 5, "first_time": 0.5, "last_time": 1.5,
    }
    assert ReconstructionStats(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11).to_dict() == {
        "ops": 6, "ops_read": 1, "ops_write": 2, "ops_fsync": 3, "bytes_read": 4,
        "bytes_written": 5, "backfill_bytes": 6, "files_created": 7, "clamped": 8,
        "realigned": 9, "no_space": 10, "dropped": 11,
    }
    assert Attribution({"fs_cpu": 0.25, "device_service": 0.75}, 1.0, 2).to_dict() == {
        "schema": "repro.obs.attribution/v1", "total_s": 1.0, "syscalls": 2,
        "components_s": {"fs_cpu": 0.25, "device_service": 0.75},
        "residual_s": 0.0, "ok": True,
    }


def test_traffic_snapshot_and_delta_are_pinned():
    from repro.block.request import IoOp
    from repro.block.tracer import TrafficCounter
    from repro.device.base import DeviceStats

    counter = TrafficCounter()
    counter.add(IoOp.READ, 8192, 2)
    snapshot = counter.snapshot()
    counter.add(IoOp.WRITE, 4096)
    assert vars(counter) == {
        "read_bytes": 8192, "write_bytes": 4096, "discard_bytes": 0,
        "read_commands": 2, "write_commands": 1, "discard_commands": 0,
    }
    assert snapshot == TrafficCounter(read_bytes=8192, read_commands=2)
    assert counter.delta(snapshot) == TrafficCounter(write_bytes=4096, write_commands=1)

    stats = DeviceStats(busy_time=0.5)
    earlier = stats.snapshot()
    stats.add(IoOp.DISCARD, 4096)
    stats.busy_time = 1.25
    delta = stats.delta(earlier)
    assert type(delta) is DeviceStats
    assert repr(delta) == (
        "DeviceStats(read_bytes=0, write_bytes=0, discard_bytes=4096, read_commands=0, "
        "write_commands=0, discard_commands=1, busy_time=0.75)"
    )


def test_fault_plan_repr_is_pinned():
    from repro.faults import FaultPlan

    plan = FaultPlan(3).io_error("fs.write", after_ops=2).torn_write("device.submit", 0.25)
    assert repr(plan) == (
        "FaultPlan(seed=3, rules=[FaultRule(site='fs.write', kind='io_error', op=None, "
        "lba=None, after_ops=2, at_time=None, probability=None, latency=None, "
        "torn_fraction=0.5, max_fires=1), FaultRule(site='device.submit', kind='torn', "
        "op='write', lba=None, after_ops=None, at_time=None, probability=None, "
        "latency=None, torn_fraction=0.25, max_fires=1)])"
    )
