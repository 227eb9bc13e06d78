"""A SQLite-like paged database with a rollback journal.

Synchronous sequential insertion writes, per committed page: the old page
image to the rollback journal (plus journal header traffic), an fsync, the
page itself into the main database file, and another fsync.  On a CoW
filesystem the interleaved journal/database writes shred the database file
into small extents — the paper observes this workload produces "a severe
degree of fragmentation on Btrfs even without aging" (Section 5.3.2).

``select_fraction`` scans the leading fraction of the table with buffered
sequential reads, like the paper's SELECT returning 30% of the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..constants import KIB
from ..errors import InvalidArgument
from ..fs.base import Filesystem


#: database page size (block aligned)
PAGE_SIZE = 4 * KIB
#: the app name (and block-tracer tag) the database's syscalls carry
APP = "sqlite"


@dataclass(frozen=True)
class SqliteConfig:
    db_path: str = "/db.sqlite"
    synchronous: bool = True   # fsync journal + db on every page commit


class SqliteLike:
    """Append-mostly table in a single paged file."""

    def __init__(self, fs: Filesystem, config: Optional[SqliteConfig] = None) -> None:
        config = config if config is not None else SqliteConfig()
        self.fs = fs
        self.config = config
        self.db = fs.open(config.db_path, o_direct=False, app=APP, create=True)
        self.journal = fs.open(config.db_path + "-journal", o_direct=False, app=APP, create=True)
        self._page_fill: int = 0          # bytes used in the current leaf page
        self._page_count: int = 0
        self._row_pages: Dict[bytes, int] = {}
        self.rows = 0

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def insert(self, key: bytes, value_size: int, now: float = 0.0) -> float:
        """Insert one row; commits a page whenever the leaf fills.

        Rows larger than the space left spill onto fresh pages; rows
        larger than a whole page use overflow pages (SQLite-style), each
        committed through the journal like any other page.
        """
        row_bytes = len(key) + value_size + 8  # header-ish overhead
        if self._page_fill + row_bytes > PAGE_SIZE:
            now = self._commit_page(now)
        self._row_pages[key] = self._page_count
        remaining = row_bytes
        while remaining > PAGE_SIZE:
            # overflow page: filled completely by this row
            self._page_fill = PAGE_SIZE
            now = self._commit_page(now)
            remaining -= PAGE_SIZE
        self._page_fill += remaining
        self.rows += 1
        return now

    def _commit_page(self, now: float) -> float:
        """Journal the page, then write it to the database file."""
        page_offset = self._page_count * PAGE_SIZE
        journal_offset = self._page_count * PAGE_SIZE
        now = self.fs.write(self.journal, journal_offset, PAGE_SIZE, now=now).finish_time
        if self.config.synchronous:
            now = self.fs.fsync(self.journal, now=now).finish_time
        now = self.fs.write(self.db, page_offset, PAGE_SIZE, now=now).finish_time
        if self.config.synchronous:
            now = self.fs.fsync(self.db, now=now).finish_time
        self._page_count += 1
        self._page_fill = 0
        return now

    def finish_load(self, now: float = 0.0) -> float:
        """Commit the trailing partial page and reset the journal."""
        if self._page_fill:
            now = self._commit_page(now)
        now = self.fs.truncate(self.journal, 0, now=now).finish_time
        return now

    def load_sequential(self, rows: int, value_size: int, now: float = 0.0) -> float:
        """The paper's setup: synchronous sequential insertion."""
        for i in range(rows):
            now = self.insert(b"row%010d" % i, value_size, now=now)
        return self.finish_load(now)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def select_fraction(self, fraction: float, now: float = 0.0, request_size: int = 32 * KIB) -> Tuple[float, float]:
        """Scan the leading ``fraction`` of pages with buffered sequential
        reads; returns (finish, elapsed)."""
        if not 0.0 < fraction <= 1.0:
            raise InvalidArgument("fraction must be in (0, 1]")
        pages = int(self._page_count * fraction)
        length = pages * PAGE_SIZE
        handle = self.fs.open(self.config.db_path, o_direct=False, app=APP)
        start = now
        offset = 0
        while offset < length:
            take = min(request_size, length - offset)
            now = self.fs.read(handle, offset, take, now=now).finish_time
            offset += take
        return now, now - start

    @property
    def db_size(self) -> int:
        return self.fs.inode_of(self.config.db_path).size
