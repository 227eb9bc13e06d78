"""Streaming trace readers/writers for the three supported formats.

Every reader is a *generator over a file*: it yields unified
:class:`~repro.types.IoOp` records one at a time and never materializes
the trace in memory (the bounded-memory contract behind "replay millions
of ops").  Records a reader cannot make sense of are **counted, never
silent**: each reader carries a :class:`ParseStats` whose ``malformed`` /
``zero_length`` / ``out_of_order`` counters land verbatim in the replay
report.

Formats
-------

``blktrace`` — the text format ``blkparse`` prints::

    8,0  1  42  0.000104000  1234  Q  R  7864360 + 8 [fio]

  (device, cpu, seq, time, pid, action, rwbs, sector + nsectors, process).
  Only one action kind is accepted (default ``Q``, the queue event) so a
  trace that logs the full Q->G->I->D->C lifecycle is not counted five
  times.  Block traces address the *device*, not files; following
  TraceTracker's entity-mapping step, the reader lifts each record onto a
  synthetic file entity by splitting the LBA space into fixed-size
  regions: ``file_id = byte_offset // region_bytes``, with the offset
  rebased into the region.  Reconstruction then re-places those entities
  onto the simulated filesystem.

``csv`` — ``time,op,file_id,offset,size[,o_direct]`` with an optional
  header line; tolerant of blank lines and comments (``#``).

``binary`` — the compact ``repro.replay/v1`` container: an 8-byte header
  (magic ``RRPL``, version byte, record-size byte, 2 pad bytes) followed
  by fixed 34-byte struct-packed records.  ~3x smaller than the text
  forms and the only format the capture writer emits.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterator, Optional

from ..constants import MIB
from ..errors import InvalidArgument
from ..types import IO_OP_KINDS, IoOp, Record

#: binary container magic + version (the ``repro.replay/v1`` wire format)
BINARY_MAGIC = b"RRPL"
BINARY_VERSION = 1

#: one packed record: op(u8), flags(u8), file_id(u64), offset(u64),
#: size(u64), time(f64) — little-endian, no padding
_RECORD = struct.Struct("<BBQQQd")
RECORD_SIZE = _RECORD.size  # 34

#: 8-byte header: magic(4) + version(u8) + record_size(u8) + pad(2)
_HEADER = struct.Struct("<4sBB2x")
HEADER_SIZE = _HEADER.size

#: op kind <-> wire code
_OP_CODE: Dict[str, int] = {op: i for i, op in enumerate(IO_OP_KINDS)}
_CODE_OP: Dict[int, str] = {i: op for op, i in _OP_CODE.items()}

_FLAG_O_DIRECT = 0x01

#: LBA-region size used to lift block-trace records onto file entities
DEFAULT_REGION_BYTES = 4 * MIB

#: actions accepted from blktrace text (Q = queued at the block layer)
DEFAULT_ACTIONS = frozenset({"Q"})

#: bytes per blktrace sector
SECTOR_BYTES = 512


class ParseStats(Record):
    """What a reader saw besides clean records (counted, never silent)."""

    __slots__ = _fields = (
        "records", "malformed", "zero_length", "out_of_order", "filtered",
        "first_time", "last_time",
    )

    def __init__(
        self,
        records: int = 0,
        malformed: int = 0,
        zero_length: int = 0,
        out_of_order: int = 0,
        filtered: int = 0,
        first_time: float = 0.0,
        last_time: float = 0.0,
    ) -> None:
        self.records = records  # clean records yielded
        self.malformed = malformed  # unparseable lines / truncated tail bytes
        self.zero_length = zero_length  # ops with size <= 0 (skipped)
        self.out_of_order = out_of_order  # timestamps behind the high-water mark (clamped)
        self.filtered = filtered  # well-formed but outside the accepted set
        #: trace-time span covered by yielded records
        self.first_time = first_time
        self.last_time = last_time

    def to_dict(self) -> Dict[str, object]:
        return {
            "records": self.records,
            "malformed": self.malformed,
            "zero_length": self.zero_length,
            "out_of_order": self.out_of_order,
            "filtered": self.filtered,
            "first_time": self.first_time,
            "last_time": self.last_time,
        }


class TraceReader:
    """Base: iterate a trace source as a stream of :class:`IoOp`.

    ``stats`` is live while iterating and final after exhaustion.
    Timestamps are forced monotonic non-decreasing: a record behind the
    high-water mark is *clamped* to it and counted ``out_of_order``
    (replay needs a sane arrival order; dropping the op would silently
    shrink the workload).
    """

    format_name = "abstract"

    def __init__(self) -> None:
        self.stats = ParseStats()
        self._clock = 0.0

    def __iter__(self) -> Iterator[IoOp]:
        for record in self._records():
            time = record.time
            if time < self._clock:
                self.stats.out_of_order += 1
                record = IoOp(
                    record.op, record.file_id, record.offset, record.size,
                    self._clock, record.o_direct,
                )
            else:
                self._clock = time
            if self.stats.records == 0:
                self.stats.first_time = record.time
            self.stats.last_time = record.time
            self.stats.records += 1
            yield record

    def _records(self) -> Iterator[IoOp]:  # pragma: no cover - abstract
        raise NotImplementedError

    def _skip(self, kind: str) -> None:
        setattr(self.stats, kind, getattr(self.stats, kind) + 1)


class BlktraceTextReader(TraceReader):
    """Streaming parser for blkparse-style text traces."""

    format_name = "blktrace"

    def __init__(
        self,
        path: str,
        region_bytes: int = DEFAULT_REGION_BYTES,
        actions: frozenset = DEFAULT_ACTIONS,
    ) -> None:
        super().__init__()
        if region_bytes <= 0:
            raise InvalidArgument("region_bytes must be positive")
        self.path = path
        self.region_bytes = region_bytes
        self.actions = actions

    def _records(self) -> Iterator[IoOp]:
        with open(self.path, "r", errors="replace") as fh:
            for line in fh:
                record = self._parse_line(line)
                if record is not None:
                    yield record

    def _parse_line(self, line: str) -> Optional[IoOp]:
        parts = line.split()
        if not parts:
            return None  # blank: not even malformed
        # dev cpu seq time pid action rwbs sector + nsectors [proc]
        if len(parts) < 10 or parts[8] != "+":
            self._skip("malformed")
            return None
        try:
            time = float(parts[3])
            action = parts[5]
            rwbs = parts[6]
            sector = int(parts[7])
            nsectors = int(parts[9])
        except ValueError:
            self._skip("malformed")
            return None
        if action not in self.actions:
            self._skip("filtered")
            return None
        if "R" in rwbs:
            op = "read"
        elif "W" in rwbs:
            op = "write"
        else:
            self._skip("filtered")  # discard/flush/barrier records
            return None
        if nsectors <= 0 or sector < 0 or time < 0:
            self._skip("zero_length" if nsectors <= 0 else "malformed")
            return None
        byte_offset = sector * SECTOR_BYTES
        # TraceTracker-style entity lifting: LBA region -> file entity
        file_id = byte_offset // self.region_bytes
        offset = byte_offset % self.region_bytes
        return IoOp(op, file_id, offset, nsectors * SECTOR_BYTES, time)


class CsvTraceReader(TraceReader):
    """Streaming parser for ``time,op,file_id,offset,size[,o_direct]``."""

    format_name = "csv"

    _TRUE = frozenset({"1", "true", "yes", "y"})

    def __init__(self, path: str) -> None:
        super().__init__()
        self.path = path

    def _records(self) -> Iterator[IoOp]:
        with open(self.path, "r", errors="replace") as fh:
            for line in fh:
                record = self._parse_line(line)
                if record is not None:
                    yield record

    def _parse_line(self, line: str) -> Optional[IoOp]:
        line = line.strip()
        if not line or line.startswith("#"):
            return None
        fields = [f.strip() for f in line.split(",")]
        if fields[0].lower() in ("time", "timestamp"):
            return None  # header
        if len(fields) < 5:
            self._skip("malformed")
            return None
        try:
            time = float(fields[0])
            op = fields[1].lower()
            file_id = int(fields[2])
            offset = int(fields[3])
            size = int(fields[4])
        except ValueError:
            self._skip("malformed")
            return None
        if op not in IO_OP_KINDS:
            self._skip("malformed")
            return None
        if op != "fsync" and size <= 0:
            self._skip("zero_length")
            return None
        if offset < 0 or file_id < 0 or time < 0:
            self._skip("malformed")
            return None
        o_direct = True
        if len(fields) > 5:
            o_direct = fields[5].lower() in self._TRUE
        return IoOp(op, file_id, offset, max(size, 0), time, o_direct)


class BinaryTraceReader(TraceReader):
    """Streaming parser for the compact ``repro.replay/v1`` container.

    Reads in 64 KiB chunks; a truncated tail (fewer bytes than one
    record) is counted ``malformed``, not raised.
    """

    format_name = "binary"

    _CHUNK_RECORDS = 1 << 11  # 2048 records (~68 KiB) per read

    def __init__(self, path: str) -> None:
        super().__init__()
        self.path = path

    def _records(self) -> Iterator[IoOp]:
        with open(self.path, "rb") as fh:
            header = fh.read(HEADER_SIZE)
            if len(header) < HEADER_SIZE:
                self.stats.malformed += 1
                return
            magic, version, record_size = _HEADER.unpack(header)
            if magic != BINARY_MAGIC:
                raise InvalidArgument(
                    f"{self.path}: not a repro.replay trace (magic {magic!r})"
                )
            if version != BINARY_VERSION or record_size != RECORD_SIZE:
                raise InvalidArgument(
                    f"{self.path}: unsupported trace version {version} "
                    f"(record size {record_size}; want v{BINARY_VERSION}/"
                    f"{RECORD_SIZE})"
                )
            tail = b""
            while True:
                chunk = tail + fh.read(self._CHUNK_RECORDS * RECORD_SIZE)
                if not chunk:
                    return
                usable = len(chunk) - len(chunk) % RECORD_SIZE
                if usable == 0:
                    # truncated tail: fewer bytes than one record remain
                    self.stats.malformed += 1
                    return
                for start in range(0, usable, RECORD_SIZE):
                    code, flags, file_id, offset, size, time = _RECORD.unpack_from(
                        chunk, start
                    )
                    op = _CODE_OP.get(code)
                    if op is None:
                        self._skip("malformed")
                        continue
                    if op != "fsync" and size <= 0:
                        self._skip("zero_length")
                        continue
                    yield IoOp(
                        op, file_id, offset, size, time,
                        bool(flags & _FLAG_O_DIRECT),
                    )
                # a partial record at the chunk boundary is carried into
                # the next read; at EOF the loop above counts it malformed
                tail = chunk[usable:]


class BinaryTraceWriter:
    """Streaming writer for the compact container (context manager).

    Appends one packed record per :meth:`write_op`; nothing is buffered
    beyond the OS file buffer, so capture is as memory-bounded as replay.
    """

    def __init__(self, path_or_file) -> None:
        if isinstance(path_or_file, (str, bytes)):
            self._fh = open(path_or_file, "wb")
            self._owns = True
        else:
            self._fh = path_or_file
            self._owns = False
        self._fh.write(_HEADER.pack(BINARY_MAGIC, BINARY_VERSION, RECORD_SIZE))
        self.written = 0

    def write_op(self, record: IoOp) -> None:
        code = _OP_CODE.get(record.op)
        if code is None:
            raise InvalidArgument(f"unknown op kind {record.op!r}")
        flags = _FLAG_O_DIRECT if record.o_direct else 0
        self._fh.write(_RECORD.pack(
            code, flags, record.file_id, record.offset,
            max(record.size, 0), record.time,
        ))
        self.written += 1

    def close(self) -> None:
        if self._owns:
            self._fh.close()
        else:
            self._fh.flush()

    def __enter__(self) -> "BinaryTraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# format detection
# ----------------------------------------------------------------------

FORMATS = ("blktrace", "csv", "binary")


def sniff_format(path: str) -> str:
    """Detect a trace file's format from its first bytes."""
    with open(path, "rb") as fh:
        head = fh.read(len(BINARY_MAGIC))
    if head == BINARY_MAGIC:
        return "binary"
    if path.endswith(".csv"):
        return "csv"
    with open(path, "r", errors="replace") as fh:
        first = fh.readline()
    fields = first.split(",")
    if len(fields) >= 5:
        return "csv"
    return "blktrace"


def open_trace(path: str, fmt: str = "auto") -> TraceReader:
    """A streaming reader for ``path`` (``fmt='auto'`` sniffs)."""
    if fmt == "auto":
        fmt = sniff_format(path)
    if fmt == "binary":
        return BinaryTraceReader(path)
    if fmt == "csv":
        return CsvTraceReader(path)
    if fmt == "blktrace":
        return BlktraceTextReader(path)
    raise InvalidArgument(f"unknown trace format {fmt!r} (want one of {FORMATS})")
