"""End-to-end pin of the flash device under a seeded command stream.

A seeded mix of writes, discards and reads, with unaligned offsets and
runs longer than an erase block, is submitted through
``FlashSsd.submit`` on devices small enough that garbage collection
runs.  The digest covers every ``BatchResult``, every command's
``CommandPlan`` (recorded as the device builds it), any ``DeviceError``
text, and at the end ``write_amplification``, ``total_erases`` and
``describe()``.  Any change to striping, channel placement, GC victim
choice, relocation counts or plan caching moves it.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.block.request import IoCommand, IoOp
from repro.constants import BLOCK_SIZE, MIB
from repro.device.flash import FlashParams, FlashSsd
from repro.errors import DeviceError

#: (seed, capacity MiB, pages per block, overprovision) -> digest of the
#: stream; the 7 % device runs out of space on some writes, and those
#: errors are part of its digest
GOLDEN = {
    (0, 4, 8, 0.25): "cb24d371073bcf8d",
    (1, 8, 16, 0.5): "82ad7a27ad9253fb",
    (2, 4, 16, 0.07): "dcb969344cb48901",
    (3, 16, 256, 0.07): "ef5534693e3179bc",
}

STEPS = 1500


def _command(rng: random.Random, pages: int, hot: int) -> IoCommand:
    """One command: mostly writes over a hot region, some long runs."""
    roll = rng.random()
    if roll < 0.55:
        op = IoOp.WRITE
    elif roll < 0.65:
        op = IoOp.DISCARD
    else:
        op = IoOp.READ
    if rng.random() < 0.1:
        length = rng.randint(1, 3) * rng.choice((32, 64, 256)) * BLOCK_SIZE
    else:
        length = rng.randint(1, 24) * BLOCK_SIZE
    if rng.random() < 0.25:
        # unaligned: a partial first page moves the page count
        length += rng.randrange(1, BLOCK_SIZE)
    span = hot if rng.random() < 0.9 else pages
    offset = rng.randrange(span) * BLOCK_SIZE
    if rng.random() < 0.25:
        offset += rng.randrange(1, BLOCK_SIZE)
    length = min(length, pages * BLOCK_SIZE - offset)
    return IoCommand(op, offset, length)


def _stream(seed: int, capacity_mib: int, pages_per_block: int, overprovision: float):
    params = FlashParams(pages_per_block=pages_per_block, overprovision=overprovision)
    ssd = FlashSsd(capacity=capacity_mib * MIB, params=params)
    plans = []
    build = ssd._plan_command

    def recording(command):
        plan = build(command)
        plans.append(plan)
        return plan

    ssd._plan_command = recording
    rng = random.Random(seed)
    pages = ssd.capacity // BLOCK_SIZE
    hot = pages // 2
    now = 0.0
    records = []
    for _ in range(STEPS):
        batch = [_command(rng, pages, hot) for _ in range(rng.randint(1, 4))]
        del plans[:]
        try:
            result = ssd.submit(batch, now)
        except DeviceError as exc:
            records.append(["error", str(exc), [repr(p) for p in plans]])
            continue
        records.append([repr(tuple(result)), [repr(p) for p in plans]])
        now = result.finish_time if rng.random() < 0.5 else now + 1e-4
    body = {
        "records": records,
        "write_amplification": repr(ssd.ftl.write_amplification),
        "total_erases": ssd.ftl.total_erases,
        "describe": {key: repr(value) for key, value in sorted(ssd.describe().items())},
    }
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16], ssd, records


@pytest.mark.parametrize("config", sorted(GOLDEN))
def test_flash_command_stream_is_pinned(config):
    digest, ssd, records = _stream(*config)
    assert ssd.ftl.total_erases > 0  # the stream reaches GC
    assert ssd.ftl.relocated_pages_total > 0
    assert digest == GOLDEN[config]
