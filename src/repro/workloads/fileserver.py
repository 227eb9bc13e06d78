"""Filebench-fileserver-style file set and the recursive-grep measurement.

The file set is created with appends interleaved round-robin across many
files (plus optional delete/recreate churn), which is how a busy file
server ends up with every file shredded into small extents.  The paper's
measurement is the *grep cost*: recursively read every file under the
directory with buffered 32 KiB sequential reads (readahead turns those
into 128 KiB requests) and divide elapsed time by the data size
(seconds per GiB).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..constants import BLOCK_SIZE, GIB, KIB, MIB, block_align_up
from ..errors import InvalidArgument
from ..fs.base import Filesystem


#: per-append size during churn
APPEND_CHUNK = 8 * KIB
#: the app name (and block-tracer tag) the file set's syscalls carry;
#: its writes are O_DIRECT, as the paper configures
APP = "fileserver"


@dataclass(frozen=True)
class FileServerConfig:
    directory: str = "/fileserver"
    file_count: int = 100
    mean_file_size: int = 1 * MIB      # scaled from the paper's 8.4 MB
    churn_rounds: int = 2              # delete/recreate passes
    #: leading fraction of each file written in one go (contiguous base);
    #: the rest arrives as interleaved appends over time, so files end up
    #: with a clean head and a shredded tail — the layout mix that lets a
    #: selective defragmenter skip work a full-file tool cannot
    contiguous_fraction: float = 0.5
    seed: int = 11


@dataclass(frozen=True)
class GrepResult:
    elapsed: float
    bytes_read: int
    files: int

    @property
    def cost_per_gb(self) -> float:
        """The paper's grep cost: seconds per GiB of data."""
        if self.bytes_read == 0:
            return 0.0
        return self.elapsed / (self.bytes_read / GIB)


class FileServer:
    """Builds and churns the file set."""

    def __init__(self, fs: Filesystem, config: Optional[FileServerConfig] = None) -> None:
        self.fs = fs
        self.config = config = config if config is not None else FileServerConfig()
        self._rng = random.Random(config.seed)
        self.paths: List[str] = []

    def populate(self, now: float = 0.0) -> float:
        """Create the file set, then churn it.

        Each file gets a contiguous base (one streaming write) followed by
        interleaved appends shared with the other files.
        """
        sizes = [self._file_size() for _ in range(self.config.file_count)]
        self.paths = [
            f"{self.config.directory}/file{i:05d}" for i in range(self.config.file_count)
        ]
        now = self._two_phase_fill(self.paths, sizes, now)
        for round_idx in range(self.config.churn_rounds):
            now = self._churn(round_idx, now)
        return now

    def _two_phase_fill(self, paths: List[str], sizes: List[int], now: float) -> float:
        bases = [
            block_align_up(int(size * self.config.contiguous_fraction)) for size in sizes
        ]
        for path, base in zip(paths, bases):
            handle = self.fs.open(path, o_direct=True, app=APP, create=True)
            if base > 0:
                now = self.fs.write(handle, 0, base, now=now).finish_time
        tails = [size - base for size, base in zip(sizes, bases)]
        now = self._interleaved_append(paths, bases, tails, now)
        return now

    def _file_size(self) -> int:
        """Roughly gamma-distributed sizes around the configured mean."""
        size = int(self._rng.gammavariate(2.0, self.config.mean_file_size / 2.0))
        return max(BLOCK_SIZE, block_align_up(size))

    def _interleaved_append(self, paths: List[str], offsets: List[int], amounts: List[int], now: float) -> float:
        """Round-robin small appends across the files (the shredder)."""
        handles = [
            self.fs.open(path, o_direct=True, app=APP, create=True)
            for path in paths
        ]
        offsets = list(offsets)
        targets = [off + amt for off, amt in zip(offsets, amounts)]
        live = [i for i in range(len(paths)) if offsets[i] < targets[i]]
        while live:
            next_live = []
            for idx in live:
                chunk = min(APPEND_CHUNK, targets[idx] - offsets[idx])
                if chunk <= 0:
                    continue
                now = self.fs.write(handles[idx], offsets[idx], chunk, now=now).finish_time
                offsets[idx] += chunk
                if offsets[idx] < targets[idx]:
                    next_live.append(idx)
            live = next_live
        return now

    def _churn(self, round_idx: int, now: float) -> float:
        """Delete a random subset and rewrite them (two-phase again)."""
        victims = self._rng.sample(self.paths, max(1, len(self.paths) // 4))
        for path in victims:
            now = self.fs.unlink(path, now=now).finish_time
        sizes = [self._file_size() for _ in victims]
        now = self._two_phase_fill(victims, sizes, now)
        return now

    def total_bytes(self) -> int:
        return sum(self.fs.inode_of(p).size for p in self.paths if self.fs.exists(p))

    def average_fragments(self) -> float:
        counts = [
            self.fs.inode_of(p).fragment_count() for p in self.paths if self.fs.exists(p)
        ]
        return sum(counts) / len(counts) if counts else 0.0


def grep_directory(
    fs: Filesystem,
    directory: str,
    now: float = 0.0,
    request_size: int = 32 * KIB,
    app: str = "grep",
) -> Tuple[float, GrepResult]:
    """Recursive grep: buffered sequential reads of every file.

    Returns (finish_time, result).  Callers should ``fs.drop_caches()``
    first if the files were just written.
    """
    paths = fs.listdir(directory)
    if not paths:
        raise InvalidArgument(f"no files under {directory}")
    start = now
    total = 0
    for path in paths:
        handle = fs.open(path, o_direct=False, app=app)
        size = fs.inode_of(path).size
        for offset in range(0, size, request_size):
            take = min(request_size, size - offset)
            now = fs.read(handle, offset, take, now=now).finish_time
        total += size
    return now, GrepResult(elapsed=now - start, bytes_read=total, files=len(paths))
