"""A RocksDB-like LSM key-value store built on the simulated filesystem.

Real enough to exercise the storage stack the way the paper's RocksDB
setup does: a write-ahead log, an in-memory memtable flushed into
sorted-string-table files with configurable (128 KiB in the paper) data
blocks, L0 -> L1 compaction, and point lookups that read exactly one
aligned data block with O_DIRECT.

Values round-trip for real — ``get`` reads the block through the
filesystem and slices the value out of the returned bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..constants import BLOCK_SIZE, KIB, MIB, block_align_up
from ..errors import InvalidArgument
from ..fs.base import FileHandle, Filesystem

_LEN = struct.Struct("<II")  # key length, value length


def _parse_blocks(data: bytes, block_size: int) -> List[Tuple[bytes, bytes]]:
    """Decode the length-prefixed records out of padded data blocks."""
    items: List[Tuple[bytes, bytes]] = []
    for block_start in range(0, len(data), block_size):
        pos = block_start
        block_end = min(block_start + block_size, len(data))
        while pos + _LEN.size <= block_end:
            klen, vlen = _LEN.unpack_from(data, pos)
            if klen == 0:  # padding: rest of block is empty
                break
            pos += _LEN.size
            key = data[pos : pos + klen]
            value = data[pos + klen : pos + klen + vlen]
            items.append((key, value))
            pos += klen + vlen
    return items


#: where the store keeps its WAL and tables
DIRECTORY = "/rocksdb"
#: the app name (and block-tracer tag) the store's syscalls carry; its
#: tables are O_DIRECT, as the paper sets
APP = "rocksdb"
#: size of each L1 table compaction writes
SST_TARGET_BYTES = 16 * MIB
#: L0 tables that trigger an L0 -> L1 compaction
L0_COMPACTION_TRIGGER = 4
#: WAL appends between fsyncs
WAL_SYNC_EVERY = 64


@dataclass(frozen=True)
class LsmConfig:
    block_size: int = 128 * KIB          # the paper configures 128 KiB
    memtable_bytes: int = 4 * MIB


@dataclass
class SsTable:
    """One on-disk sorted table plus its in-memory index."""

    path: str
    min_key: bytes
    max_key: bytes
    size: int
    #: key -> (file offset of the record's block, offset in block, value len)
    index: Dict[bytes, Tuple[int, int, int]] = field(default_factory=dict)

    def may_contain(self, key: bytes) -> bool:
        return self.min_key <= key <= self.max_key


@dataclass
class LsmStats:
    puts: int = 0
    gets: int = 0
    hits: int = 0
    flushes: int = 0
    compactions: int = 0


class LsmStore:
    """Two-level LSM tree."""

    def __init__(self, fs: Filesystem, config: Optional[LsmConfig] = None) -> None:
        config = config if config is not None else LsmConfig()
        if config.block_size % BLOCK_SIZE:
            raise InvalidArgument("LSM block size must be fs-block aligned")
        self.fs = fs
        self.config = config
        self.memtable: Dict[bytes, bytes] = {}
        self.memtable_bytes = 0
        self.level0: List[SsTable] = []   # newest first
        self.level1: List[SsTable] = []   # sorted by min_key
        self.stats = LsmStats()
        self._sst_counter = 0
        self._wal_ops = 0
        self._wal_offset = 0
        self._wal = self._open_wal()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def put(self, key: bytes, value: bytes, now: float = 0.0) -> float:
        """Insert/update; may trigger a flush and compaction."""
        record = _LEN.pack(len(key), len(value)) + key + value
        now = self.fs.write(self._wal, self._wal_offset, data=record, now=now).finish_time
        self._wal_offset += len(record)
        self._wal_ops += 1
        if self._wal_ops % WAL_SYNC_EVERY == 0:
            now = self.fs.fsync(self._wal, now=now).finish_time
        if key not in self.memtable:
            self.memtable_bytes += len(key) + len(value)
        else:
            self.memtable_bytes += len(value) - len(self.memtable[key])
        self.memtable[key] = value
        self.stats.puts += 1
        if self.memtable_bytes >= self.config.memtable_bytes:
            now = self.flush(now)
        return now

    def get(self, key: bytes, now: float = 0.0) -> Tuple[float, Optional[bytes]]:
        """Point lookup: memtable, then L0 newest-first, then L1."""
        self.stats.gets += 1
        if key in self.memtable:
            self.stats.hits += 1
            return now, self.memtable[key]
        for sst in self.level0:
            if sst.may_contain(key) and key in sst.index:
                return self._read_value(sst, key, now)
        for sst in self.level1:
            if sst.may_contain(key) and key in sst.index:
                return self._read_value(sst, key, now)
        return now, None

    def flush(self, now: float = 0.0) -> float:
        """Write the memtable out as a new L0 table."""
        if not self.memtable:
            return now
        now = self._write_sst(sorted(self.memtable.items()), self.level0, now, prepend=True)
        self.memtable.clear()
        self.memtable_bytes = 0
        self.stats.flushes += 1
        now = self._reset_wal(now)
        if len(self.level0) >= L0_COMPACTION_TRIGGER:
            now = self.compact(now)
        return now

    def compact(self, now: float = 0.0) -> float:
        """Merge all of L0 and L1 into fresh L1 tables.

        Every victim table is read back through the filesystem (sequential
        1 MiB reads), so compaction I/O is fully accounted.
        """
        merged: Dict[bytes, bytes] = {}
        victims = list(reversed(self.level1)) + list(reversed(self.level0))
        for sst in victims:  # oldest first so newer entries win
            now, items = self._read_table(sst, now)
            merged.update(items)
        old_paths = [sst.path for sst in self.level0 + self.level1]
        self.level0 = []
        self.level1 = []
        items = sorted(merged.items())
        pos = 0
        while pos < len(items):
            chunk: List[Tuple[bytes, bytes]] = []
            chunk_bytes = 0
            while pos < len(items) and chunk_bytes < SST_TARGET_BYTES:
                chunk.append(items[pos])
                chunk_bytes += len(items[pos][0]) + len(items[pos][1])
                pos += 1
            now = self._write_sst(chunk, self.level1, now, prepend=False)
        for path in old_paths:
            now = self.fs.unlink(path, now=now).finish_time
        self.level1.sort(key=lambda sst: sst.min_key)
        self.stats.compactions += 1
        return now

    def files(self) -> List[str]:
        """Paths of all live SSTs (defragmentation targets)."""
        return [sst.path for sst in self.level0 + self.level1]

    @property
    def wal_path(self) -> str:
        return f"{DIRECTORY}/wal.log"

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _open_wal(self) -> FileHandle:
        # The WAL is buffered + fsynced (RocksDB's default path).
        return self.fs.open(self.wal_path, o_direct=False, app=APP, create=True)

    def _reset_wal(self, now: float) -> float:
        now = self.fs.truncate(self._wal, 0, now=now).finish_time
        self._wal_offset = 0
        return now

    def _write_sst(
        self,
        items: List[Tuple[bytes, bytes]],
        level: List[SsTable],
        now: float,
        prepend: bool,
    ) -> float:
        if not items:
            return now
        path = f"{DIRECTORY}/sst{self._sst_counter:06d}.sst"
        self._sst_counter += 1
        handle = self.fs.open(path, o_direct=True, app=APP, create=True)
        index: Dict[bytes, Tuple[int, int, int]] = {}
        block = bytearray()
        blocks: List[bytes] = []
        block_offset = 0
        for key, value in items:
            record = _LEN.pack(len(key), len(value)) + key + value
            if len(block) + len(record) > self.config.block_size and block:
                blocks.append(self._pad(block))
                block = bytearray()
                block_offset += self.config.block_size
            index[key] = (block_offset, len(block) + _LEN.size + len(key), len(value))
            block.extend(record)
        if block:
            blocks.append(self._pad(block))
        data = b"".join(blocks)
        # stream out in 1 MiB writes, like a real table builder
        pos = 0
        while pos < len(data):
            chunk = data[pos : pos + MIB]
            now = self.fs.write(handle, pos, data=chunk, now=now).finish_time
            pos += len(chunk)
        now = self.fs.fsync(handle, now=now).finish_time
        sst = SsTable(path=path, min_key=items[0][0], max_key=items[-1][0], size=len(data), index=index)
        if prepend:
            level.insert(0, sst)
        else:
            level.append(sst)
        return now

    def _pad(self, block: bytearray) -> bytes:
        pad = self.config.block_size - len(block)
        return bytes(block) + b"\x00" * pad

    def _read_value(self, sst: SsTable, key: bytes, now: float) -> Tuple[float, bytes]:
        block_off, in_block, vlen = sst.index[key]
        handle = self.fs.open(sst.path, o_direct=True, app=APP)
        length = min(self.config.block_size, block_align_up(sst.size) - block_off)
        result = self.fs.read(handle, block_off, length, now=now, want_data=True)
        self.stats.hits += 1
        value = result.data[in_block : in_block + vlen]
        return result.finish_time, value

    def _read_table(self, sst: SsTable, now: float) -> Tuple[float, List[Tuple[bytes, bytes]]]:
        """Sequentially read and parse a whole table (compaction input)."""
        handle = self.fs.open(sst.path, o_direct=True, app=APP)
        size = block_align_up(sst.size)
        chunks: List[bytes] = []
        pos = 0
        while pos < size:
            length = min(MIB, size - pos)
            result = self.fs.read(handle, pos, length, now=now, want_data=True)
            chunks.append(result.data)
            now = result.finish_time
            pos += length
        return now, _parse_blocks(b"".join(chunks), self.config.block_size)
