"""End-to-end pin of the flash device under a seeded command stream.

A seeded mix of writes, discards and reads, with unaligned offsets and
runs longer than an erase block, is submitted through
``FlashSsd.submit`` on devices small enough that garbage collection
runs.  A batch is one op, so each drawn group of commands is submitted
as its single-op runs in order, all at the group's start time, and
their results are folded into one ``(start, finish, service, commands)``
record per group.  The digest covers every such record, every command's
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

from repro.block.request import IoOp
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


def _command(rng: random.Random, pages: int, hot: int):
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
    return op, offset, length


def _runs(group):
    """A drawn group of ``(op, offset, length)`` commands as its
    single-op ``(op, ranges)`` batches, in order."""
    runs = []
    for op, offset, length in group:
        if runs and runs[-1][0] is op:
            runs[-1][1].append((offset, length))
        else:
            runs.append((op, [(offset, length)]))
    return runs


def _submit_group(ssd, group, now, plans):
    """Submit a group's runs at ``now``; fold them into one record.

    The service time is summed over the recorded plans in command order
    (each plan's unit work, then its controller time), so it is the
    float one batch of the whole group would report.  A batch that
    raises leaves the controller timeline and the busy time where they
    were, so a group that raises in a later run gives back what its
    earlier runs added to them, as one batch of the group would.
    """
    finish = now
    controller_free, busy_time = ssd._controller_free, ssd.stats.busy_time
    try:
        for op, ranges in _runs(group):
            finish = max(finish, ssd.submit(op, ranges, now).finish_time)
    except DeviceError:
        ssd._controller_free, ssd.stats.busy_time = controller_free, busy_time
        raise
    service = 0.0
    for plan in plans:
        for _, media_time in plan.unit_work:
            service += media_time
        service += plan.controller_time
    return now, finish, service, len(group)


def _stream(seed: int, capacity_mib: int, pages_per_block: int, overprovision: float):
    params = FlashParams(pages_per_block=pages_per_block, overprovision=overprovision)
    ssd = FlashSsd(capacity=capacity_mib * MIB, params=params)
    plans = []
    build = ssd._plan_command

    def recording(op, offset, length):
        plan = build(op, offset, length)
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
            result = _submit_group(ssd, batch, now, plans)
        except DeviceError as exc:
            records.append(["error", str(exc), [repr(p) for p in plans]])
            continue
        records.append([repr(result), [repr(p) for p in plans]])
        now = result[1] if rng.random() < 0.5 else now + 1e-4
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
