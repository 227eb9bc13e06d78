"""FIO-like sequential writer, used as a co-running foreground workload
in the SQLite/MicroSD experiment (Section 5.3.2)."""

from __future__ import annotations

from ..constants import KIB
from ..fs.base import Filesystem


def fio_sequential_writer(
    fs: Filesystem,
    path: str = "/fio.dat",
    request_size: int = 128 * KIB,
    duration: float = None,
    max_bytes: int = None,
    app: str = "fio",
):
    """Actor: 128 KiB sequential O_DIRECT writes; completions -> timeline.

    Each timeline event carries the bytes written, so
    ``ctx.timeline.total() / elapsed`` is the FIO throughput.
    """
    if duration is None and max_bytes is None:
        raise ValueError("fio needs a duration or byte budget")

    def _run(ctx):
        handle = fs.open(path, o_direct=True, app=app, create=True)
        end = None if duration is None else ctx.now + duration
        offset = 0
        while end is None or ctx.now < end:
            if max_bytes is not None and offset >= max_bytes:
                break
            result = fs.write(handle, offset, request_size, now=ctx.now)
            ctx.now = result.finish_time
            ctx.record(request_size)
            offset += request_size
            yield
    return _run
