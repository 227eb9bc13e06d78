"""The analysis phase: alignment, readahead imitation, merging."""

from repro.constants import BLOCK_SIZE, KIB
from repro.core import FileRange
from repro.core.analysis import AnalysisPhase
from repro.fs.base import SyscallEvent


def rec(ino, offset, size, op="read", o_direct=True, t=0.0):
    return SyscallEvent(op, "app", ino, "", offset, size, o_direct, t)


def make_file(fs, path="/f", size=1024 * KIB):
    handle = fs.open(path, o_direct=True, create=True)
    fs.write(handle, 0, size)
    return fs.inode_of(path).ino


def test_block_alignment(fs):
    ino = make_file(fs)
    out = AnalysisPhase().run(fs, [rec(ino, 1000, 5000)])
    ranges = out[ino].ranges
    assert ranges == [FileRange(0, 8 * KIB, 1)]
    assert all(r.start % BLOCK_SIZE == 0 and r.end % BLOCK_SIZE == 0 for r in ranges)


def test_clamped_to_file_size(fs):
    ino = make_file(fs, size=16 * KIB)
    out = AnalysisPhase().run(fs, [rec(ino, 12 * KIB, 64 * KIB)])
    assert out[ino].ranges == [FileRange(12 * KIB, 16 * KIB, 1)]


def test_overlapping_ios_merge_with_counts(fs):
    ino = make_file(fs)
    records = [rec(ino, 0, 8 * KIB), rec(ino, 4 * KIB, 8 * KIB)]
    out = AnalysisPhase().run(fs, [
        # random buffered reads (not sequential) keep their own sizes
        rec(ino, 0, 8 * KIB), rec(ino, 4 * KIB, 8 * KIB)
    ])
    assert out[ino].ranges == [FileRange(0, 12 * KIB, 2)]


def test_buffered_sequential_reads_expanded(fs):
    """32 KiB buffered sequential reads become 128 KiB ranges, and reads
    inside the imitated window are dropped (page cache hits)."""
    ino = make_file(fs)
    records = [
        rec(ino, i * 32 * KIB, 32 * KIB, o_direct=False, t=float(i))
        for i in range(8)
    ]
    out = AnalysisPhase().run(fs, records)
    assert out[ino].ranges == [
        FileRange(0, 128 * KIB, 1),
        FileRange(128 * KIB, 256 * KIB, 1),
    ]


def test_o_direct_reads_not_expanded(fs):
    ino = make_file(fs)
    records = [rec(ino, i * 32 * KIB, 32 * KIB, t=float(i)) for i in range(4)]
    out = AnalysisPhase().run(fs, records)
    assert out[ino].ranges == [
        FileRange(i * 32 * KIB, (i + 1) * 32 * KIB, 1) for i in range(4)
    ]


def test_writes_recorded_as_is(fs):
    ino = make_file(fs)
    out = AnalysisPhase().run(fs, [rec(ino, 0, 64 * KIB, op="write", o_direct=False)])
    assert out[ino].ranges == [FileRange(0, 64 * KIB, 1)]


def test_readahead_imitation_can_be_disabled(fs):
    ino = make_file(fs)
    records = [rec(ino, i * 32 * KIB, 32 * KIB, o_direct=False, t=float(i)) for i in range(4)]
    phase = AnalysisPhase(imitate_readahead=False)
    out = phase.run(fs, records)
    assert len(out[ino].ranges) == 4


def test_unknown_inode_dropped(fs):
    make_file(fs)
    out = AnalysisPhase().run(fs, [rec(99999, 0, 4 * KIB)])
    assert out == {}


def test_inode_filter(fs):
    ino_a = make_file(fs, "/a")
    ino_b = make_file(fs, "/b")
    records = [rec(ino_a, 0, 4 * KIB), rec(ino_b, 0, 4 * KIB)]
    out = AnalysisPhase().run(fs, records, inodes=[ino_a])
    assert set(out) == {ino_a}


def test_random_buffered_read_resets_window(fs):
    ino = make_file(fs)
    records = [
        rec(ino, 0, 32 * KIB, o_direct=False, t=0.0),       # seq: expand
        rec(ino, 512 * KIB, 32 * KIB, o_direct=False, t=1.0),  # random
    ]
    out = AnalysisPhase().run(fs, records)
    assert FileRange(512 * KIB, 544 * KIB, 1) in out[ino].ranges
