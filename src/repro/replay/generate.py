"""Seeded synthetic trace corpora in the compact binary format.

Real traces are not redistributable with the repo, so CI and the
acceptance run generate their own: a seed-keyed stream with the shape
block traces actually have — zipfian file popularity, sequential runs
broken by strided jumps, a read-heavy mix with write bursts, and
jittered-but-monotonic timestamps.  Generation is as streaming as
replay: one record is drawn, written, and forgotten, so a 100M-op corpus
needs the same memory as a 100-op one.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

from ..constants import BLOCK_SIZE, KIB, MIB
from ..errors import InvalidArgument
from ..types import IoOp
from .formats import BinaryTraceWriter, HEADER_SIZE


#: request-size choices (block-aligned)
REQUEST_SIZES = (4 * KIB, 16 * KIB, 64 * KIB, 128 * KIB)
#: zipf-ish skew: probability mass concentrates on low file ids
SKEW = 1.1


@dataclass(frozen=True)
class TraceProfile:
    """Knobs of the generated workload shape."""

    ops: int = 100_000
    seed: int = 0
    files: int = 64
    #: per-file address-space cap the generator draws offsets from
    file_bytes: int = 8 * MIB
    #: fraction of ops that are reads
    read_fraction: float = 0.7
    #: fraction of ops continuing the file's current sequential run
    sequential_fraction: float = 0.6
    #: mean virtual inter-arrival gap between ops, seconds
    interarrival: float = 0.0002
    #: fsync roughly every N writes per file (0 disables)
    fsync_every: int = 32
    #: fraction of ops issued O_DIRECT (the rest go through the page
    #: cache, so replay exercises hit/readahead re-simulation)
    direct_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.ops < 0:
            raise InvalidArgument("ops must be >= 0")
        if self.files < 1:
            raise InvalidArgument("files must be >= 1")
        if self.file_bytes < BLOCK_SIZE:
            raise InvalidArgument("file_bytes must cover one block")


def _draw_ops(
    profile: TraceProfile,
    rng: random.Random,
    indices: range,
    arrival: Callable[[int], float],
    fsync_arrival: Callable[[int], float],
) -> Iterator[IoOp]:
    """The one draw loop behind both corpus schemes.

    Op ``index`` takes its timestamp from ``arrival(index)`` and a
    trailing fsync from ``fsync_arrival(index)``; both may draw from
    ``rng``, and are called at the same point of the draw order in both
    schemes.  The sequential cursors start empty on every call.
    """
    # zipf-ish popularity via inverse-power draw (no scipy dependency)
    files = profile.files
    cursor: Dict[int, int] = {}      # file_id -> next sequential offset
    dirty_writes: Dict[int, int] = {}  # file_id -> writes since last fsync
    slots = max(1, profile.file_bytes // BLOCK_SIZE)
    for index in indices:
        u = rng.random()
        file_id = min(files - 1, int(files * (u ** SKEW)))
        size = rng.choice(REQUEST_SIZES)
        if rng.random() < profile.sequential_fraction:
            offset = cursor.get(file_id, 0)
            if offset + size > profile.file_bytes:
                offset = 0
        else:
            offset = rng.randrange(slots) * BLOCK_SIZE
            offset = min(offset, profile.file_bytes - size)
            offset -= offset % BLOCK_SIZE
        cursor[file_id] = offset + size
        is_read = rng.random() < profile.read_fraction
        o_direct = rng.random() < profile.direct_fraction
        now = arrival(index)
        if is_read:
            yield IoOp("read", file_id, offset, size, now, o_direct)
            continue
        yield IoOp("write", file_id, offset, size, now, o_direct)
        count = dirty_writes.get(file_id, 0) + 1
        if profile.fsync_every and count >= profile.fsync_every:
            yield IoOp("fsync", file_id, 0, 0, fsync_arrival(index), o_direct)
            count = 0
        dirty_writes[file_id] = count


def generate_ops(profile: TraceProfile) -> Iterator[IoOp]:
    """The seeded op stream (a generator; nothing is materialized).

    Every op and every fsync advances the clock by an exponential gap.
    """
    rng = random.Random(f"repro.replay.gen:{profile.seed}")
    interarrival = profile.interarrival
    now = 0.0

    def advance(index: int) -> float:
        nonlocal now
        if interarrival:
            now += rng.expovariate(1.0 / interarrival)
        return now

    return _draw_ops(profile, rng, range(profile.ops), advance, advance)


#: ops per shard when ``generate_trace`` runs parallel (the boundary is
#: part of the chunked scheme: it must not depend on the worker count)
DEFAULT_CHUNK_OPS = 25_000


def generate_ops_chunk(
    profile: TraceProfile, start: int, count: int
) -> Iterator[IoOp]:
    """Ops ``[start, start + count)`` of the *chunked* seeded stream.

    The chunked scheme differs from :func:`generate_ops` by design: each
    chunk draws from its own RNG (keyed on the seed *and* the chunk's
    start index) and resets the sequential cursors, so any chunk can be
    produced without generating its predecessors.  Timestamps are
    anchored to the global op index — op ``i`` lands in
    ``[i*ia, i*ia + 0.5*ia)`` and a trailing fsync in
    ``[i*ia + 0.5*ia, (i+1)*ia)`` — so the merged stream is monotonic
    across chunk boundaries.  The output depends only on
    ``(profile, start, count)``, never on how many workers ran.
    """
    rng = random.Random(f"repro.replay.gen:{profile.seed}:chunk:{start}")
    interarrival = profile.interarrival
    draw = rng.random

    def arrival(index: int) -> float:
        return index * interarrival + draw() * 0.5 * interarrival

    def fsync_arrival(index: int) -> float:
        return index * interarrival + (0.5 + draw() * 0.5) * interarrival

    return _draw_ops(
        profile, rng, range(start, start + count), arrival, fsync_arrival
    )


def _generate_chunk(payload: Tuple[TraceProfile, int, int]) -> Tuple[bytes, int]:
    """Shard fn: pack one chunk, return its header-stripped bytes."""
    profile, start, count = payload
    buffer = io.BytesIO()
    writer = BinaryTraceWriter(buffer)
    for record in generate_ops_chunk(profile, start, count):
        writer.write_op(record)
    writer.close()
    return buffer.getvalue()[HEADER_SIZE:], writer.written


def generate_trace(
    path: str,
    profile: TraceProfile,
    workers: Optional[int] = None,
    chunk_ops: int = DEFAULT_CHUNK_OPS,
) -> int:
    """Stream a seeded corpus to ``path``; returns records written.

    Serial (``workers=None``) emits the legacy single-stream corpus of
    :func:`generate_ops` — existing seeds keep their bytes.  With
    ``workers`` the *chunked* scheme is used instead: the op range is
    cut into fixed ``chunk_ops`` shards packed in worker processes and
    concatenated in chunk order, so the file is byte-identical for any
    worker count (but is a different — equally valid — corpus than the
    serial stream for the same seed).
    """
    if workers is None:
        with BinaryTraceWriter(path) as writer:
            for record in generate_ops(profile):
                writer.write_op(record)
            return writer.written
    if chunk_ops < 1:
        raise InvalidArgument("chunk_ops must be >= 1")
    from ..par import run_sharded

    payloads = [
        (profile, start, min(chunk_ops, profile.ops - start))
        for start in range(0, profile.ops, chunk_ops)
    ]
    chunks = run_sharded(_generate_chunk, payloads, workers=workers)
    header = io.BytesIO()
    BinaryTraceWriter(header).close()
    total = 0
    with open(path, "wb") as fh:
        fh.write(header.getvalue())
        for body, written in chunks:
            fh.write(body)
            total += written
    return total
