"""Trace replay as the fleet's foreground workload.

:func:`parse_trace_workload` reads the ``repro fleet --workload
trace:<path>`` spec, and :func:`cycling_ops` turns a finite trace into the
endless op stream the fleet's foreground loop wants (re-opening the file
at EOF, so memory stays bounded no matter how many laps a long fleet run
takes).
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..errors import InvalidArgument
from ..types import IoOp
from .formats import open_trace

#: fleet workload-spec prefix: ``--workload trace:<path>``
TRACE_PREFIX = "trace:"


def parse_trace_workload(workload: str) -> Optional[str]:
    """``"trace:/path/to.bin"`` -> ``"/path/to.bin"``; None otherwise."""
    if not workload.startswith(TRACE_PREFIX):
        return None
    path = workload[len(TRACE_PREFIX):]
    if not path:
        raise InvalidArgument("trace workload needs a path: trace:<path>")
    return path


def cycling_ops(path: str, fmt: str = "auto") -> Iterator[IoOp]:
    """Endless op stream over a finite trace (re-opens at EOF).

    Timestamps are ignored by consumers of this stream (the fleet runs
    closed-loop inside tick windows), so the wrap seam needs no time
    rebasing.  An empty or all-malformed trace raises rather than
    spinning forever.
    """
    while True:
        reader = open_trace(path, fmt)
        yielded = 0
        for record in reader:
            yielded += 1
            yield record
        if not yielded:
            raise InvalidArgument(
                f"{path}: trace contains no replayable records "
                f"({reader.stats.malformed} malformed)"
            )

