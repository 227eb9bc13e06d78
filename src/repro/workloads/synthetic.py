"""Synthetic fragmented files and the Section 5.2 access patterns.

Two factories:

- :func:`make_fragmented_file` — parametric (frag_size, frag_distance)
  layouts for the Section 3 / Figure 4 sweeps, produced the way the paper
  does it: writing the target file interleaved with a dummy file so the
  allocator separates the fragments.
- :func:`make_paper_synthetic_file` — the Section 5.2 layout: repeating
  units of thirty-two 4 KiB blocks followed by one 128 KiB block, dummy
  writes interleaved.

Plus the four measured patterns: sequential/stride x read/update, all
O_DIRECT with 128 KiB requests (stride 288 KiB), as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..constants import BLOCK_SIZE, KIB, READAHEAD_SIZE, STRIDE_SIZE
from ..errors import InvalidArgument
from ..fs.base import FallocMode, Filesystem


@dataclass(frozen=True)
class FragmentSpec:
    """Layout parameters (Figure 3): fragment size and gap between
    consecutive fragments, both in bytes."""

    frag_size: int
    frag_distance: int

    def __post_init__(self) -> None:
        if self.frag_size <= 0 or self.frag_size % BLOCK_SIZE:
            raise InvalidArgument(f"bad frag_size {self.frag_size}")
        if self.frag_distance < 0 or self.frag_distance % BLOCK_SIZE:
            raise InvalidArgument(f"bad frag_distance {self.frag_distance}")


def make_fragmented_file(
    fs: Filesystem,
    path: str,
    size: int,
    spec: FragmentSpec,
    now: float = 0.0,
    dummy_path: str = None,
    app: str = "setup",
    fallocate_dummy: bool = False,
) -> float:
    """Create ``path`` of ``size`` bytes fragmented per ``spec``.

    Writes ``frag_size`` of the target, then ``frag_distance`` of a dummy
    file, repeatedly, with O_DIRECT — so on every personality the target's
    fragments end up separated by ``frag_distance`` of foreign data.
    ``fallocate_dummy`` claims the dummy's blocks via ``fallocate`` instead
    of writing them — same resulting layout, far cheaper to build, which
    matters for large frag-distance sweeps (the Ext4 variant of the
    paper's Section 5.2 recipe).  Returns the virtual completion time.
    """
    if size % BLOCK_SIZE:
        raise InvalidArgument("size must be block aligned")
    handle = fs.open(path, o_direct=True, app=app, create=True)
    dummy = None
    if spec.frag_distance > 0:
        dummy = fs.open(dummy_path or path + ".dummy", o_direct=True, app=app, create=True)
    offset = 0
    dummy_offset = 0
    while offset < size:
        chunk = min(spec.frag_size, size - offset)
        now = fs.write(handle, offset, chunk, now=now).finish_time
        offset += chunk
        if dummy is not None and offset < size:
            if fallocate_dummy:
                now = fs.fallocate(
                    dummy, FallocMode.ALLOCATE, dummy_offset, spec.frag_distance, now=now
                ).finish_time
            else:
                now = fs.write(dummy, dummy_offset, spec.frag_distance, now=now).finish_time
            dummy_offset += spec.frag_distance
    now = fs.fsync(handle, now=now).finish_time
    return now


def make_paper_synthetic_file(
    fs: Filesystem,
    path: str,
    size: int,
    now: float = 0.0,
    small_block: int = 4 * KIB,
    small_count: int = 32,
    big_block: int = 128 * KIB,
    dummy_block: int = 8 * KIB,
    app: str = "setup",
) -> float:
    """The Section 5.2 layout: a series of 32 x 4 KiB blocks and one
    128 KiB block per unit, interleaved with dummy-file writes."""
    if size % (small_block * small_count + big_block):
        raise InvalidArgument("size must be a multiple of the unit size")
    handle = fs.open(path, o_direct=True, app=app, create=True)
    dummy = fs.open(path + ".dummy", o_direct=True, app=app, create=True)
    offset = 0
    dummy_offset = 0
    while offset < size:
        for _ in range(small_count):
            now = fs.write(handle, offset, small_block, now=now).finish_time
            offset += small_block
            now = fs.write(dummy, dummy_offset, dummy_block, now=now).finish_time
            dummy_offset += dummy_block
        now = fs.write(handle, offset, big_block, now=now).finish_time
        offset += big_block
        now = fs.write(dummy, dummy_offset, dummy_block, now=now).finish_time
        dummy_offset += dummy_block
    now = fs.fsync(handle, now=now).finish_time
    return now


# ----------------------------------------------------------------------
# measured access patterns
# ----------------------------------------------------------------------

def _run_pattern(
    fs: Filesystem,
    path: str,
    op: str,
    stride: int,
    request_size: int,
    now: float,
    app: str,
    o_direct: bool,
) -> Tuple[float, float]:
    """Run a pattern over the whole file; returns (finish, MB/s)."""
    handle = fs.open(path, o_direct=o_direct, app=app)
    size = fs.inode_of(path).size
    start = now
    moved = 0
    call = fs.read if op == "read" else fs.write
    for offset in range(0, size - request_size + 1, stride):
        now = call(handle, offset, request_size, now=now).finish_time
        moved += request_size
    if moved == 0:
        raise InvalidArgument(f"file {path} smaller than one request")
    throughput = moved / (now - start) / 1e6
    return now, throughput


def sequential_read(fs, path, now=0.0, request_size=READAHEAD_SIZE, app="bench", o_direct=True):
    """Sequential reads across the file; returns (finish_time, MB/s)."""
    return _run_pattern(fs, path, "read", request_size, request_size, now, app, o_direct)


def stride_read(fs, path, now=0.0, request_size=READAHEAD_SIZE, stride=STRIDE_SIZE, app="bench", o_direct=True):
    """Stride reads (128 KiB every 288 KiB by default)."""
    return _run_pattern(fs, path, "read", stride, request_size, now, app, o_direct)


def sequential_update(fs, path, now=0.0, request_size=READAHEAD_SIZE, app="bench", o_direct=True):
    """Sequential overwrites of existing data."""
    return _run_pattern(fs, path, "write", request_size, request_size, now, app, o_direct)


def stride_update(fs, path, now=0.0, request_size=READAHEAD_SIZE, stride=STRIDE_SIZE, app="bench", o_direct=True):
    """Stride overwrites."""
    return _run_pattern(fs, path, "write", stride, request_size, now, app, o_direct)
