"""Inodes and the in-memory page store.

The page store keeps *logical* file content keyed by (inode, page index):
content is a property of the file offset, not the disk location, so data
migration only rewrites the extent map while the accounting layers observe
the real read/write traffic.  Pages written without explicit bytes (bulk
workloads) are content-free and read back as zeros.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..constants import BLOCK_SIZE
from ..types import Record
from .extent_map import ExtentMap


class Inode(Record):
    """One file."""

    __slots__ = _fields = ("ino", "path", "size", "extent_map", "nlink", "lock_holder")

    def __init__(self, ino: int, path: str, size: int = 0,
                 extent_map: Optional[ExtentMap] = None, nlink: int = 1,
                 lock_holder: Optional[str] = None) -> None:
        self.ino = ino
        self.path = path
        self.size = size
        self.extent_map = extent_map if extent_map is not None else ExtentMap()
        self.nlink = nlink
        #: exclusive lock holder tag (FragPicker migration); None when unlocked
        self.lock_holder = lock_holder

    def fragment_count(self) -> int:
        return self.extent_map.fragment_count()


class PageStore:
    """Sparse logical content, 4 KiB pages."""

    def __init__(self) -> None:
        self._pages: Dict[int, Dict[int, bytes]] = {}

    def write(self, ino: int, offset: int, data: bytes) -> None:
        """Store real bytes at a file offset (any alignment)."""
        pages = self._pages.setdefault(ino, {})
        pos = 0
        while pos < len(data):
            page = (offset + pos) // BLOCK_SIZE
            page_off = (offset + pos) % BLOCK_SIZE
            take = min(BLOCK_SIZE - page_off, len(data) - pos)
            current = pages.get(page, b"\x00" * BLOCK_SIZE)
            pages[page] = current[:page_off] + data[pos : pos + take] + current[page_off + take :]
            pos += take

    def read(self, ino: int, offset: int, length: int) -> bytes:
        """Read back bytes; unwritten regions are zeros."""
        pages = self._pages.get(ino, {})
        out = bytearray()
        pos = 0
        while pos < length:
            page = (offset + pos) // BLOCK_SIZE
            page_off = (offset + pos) % BLOCK_SIZE
            take = min(BLOCK_SIZE - page_off, length - pos)
            content = pages.get(page)
            if content is None:
                out.extend(b"\x00" * take)
            else:
                out.extend(content[page_off : page_off + take])
            pos += take
        return bytes(out)

    def any_content(self, ino: int, offset: int, length: int) -> bool:
        """True when any page in the range holds stored bytes."""
        pages = self._pages.get(ino)
        if not pages:
            return False
        first = offset // BLOCK_SIZE
        last = (offset + length - 1) // BLOCK_SIZE
        if last - first + 1 < len(pages):
            return any(page in pages for page in range(first, last + 1))
        return any(first <= page <= last for page in pages)

    def zero_range(self, ino: int, offset: int, length: int) -> None:
        """Drop content (punch-hole semantics: reads return zeros)."""
        pages = self._pages.get(ino)
        if not pages:
            return
        first = offset // BLOCK_SIZE
        last = (offset + length - 1) // BLOCK_SIZE
        for page in range(first, last + 1):
            page_start = page * BLOCK_SIZE
            page_end = page_start + BLOCK_SIZE
            if offset <= page_start and page_end <= offset + length:
                pages.pop(page, None)
            elif page in pages:
                lo = max(offset, page_start) - page_start
                hi = min(offset + length, page_end) - page_start
                content = pages[page]
                pages[page] = content[:lo] + b"\x00" * (hi - lo) + content[hi:]

    def drop(self, ino: int) -> None:
        self._pages.pop(ino, None)
