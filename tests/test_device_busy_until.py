"""``StorageDevice.busy_until`` keeps a running unit high-water mark.

Unit timelines only grow, so ``busy_until`` reads ``_unit_high`` instead
of scanning every unit.  Seeded batches of reads, writes and discards at
co-running start times must keep it equal to the scan, on every device
model, after deep copies and after batches that fail part-way through.
A scanning subclass of each model runs the same batches alongside: on
MicroSD and HDD (non-queuing) ``busy_until`` sets when the next batch
starts, so identical results there show the timing is unchanged.
"""

import copy
import random

import pytest

from repro.block import IoOp
from repro.constants import BLOCK_SIZE, MIB
from repro.device.factory import DEVICE_PRESETS
from repro.errors import DeviceIOError
from repro.faults import hooks as fault_hooks
from repro.faults.plan import FaultPlan

CAPACITY = 256 * MIB
OPS = (IoOp.READ, IoOp.READ, IoOp.WRITE, IoOp.WRITE, IoOp.DISCARD)


def scanned(device) -> float:
    return max(device._controller_free, device._link_free,
               max(device._unit_free.values(), default=0.0))


def scanning_model(cls):
    """``cls`` with ``busy_until`` computed by scanning the unit timelines."""
    return type(f"Scanning{cls.__name__}", (cls,), {"busy_until": property(scanned)})


def random_batch(rng: random.Random):
    """One op and its ``(offset, length)`` commands (a batch is one op)."""
    op = rng.choice(OPS)
    commands = []
    for _ in range(rng.randint(1, 12)):
        pages = rng.choice((1, 1, 2, 4, 16, 64))
        offset = rng.randrange(CAPACITY // BLOCK_SIZE - pages) * BLOCK_SIZE
        commands.append((offset, pages * BLOCK_SIZE))
    return op, commands


def drive(devices, seed: int, batches: int) -> None:
    """Submit the same batches to every device; results must agree."""
    rng = random.Random(seed)
    start = 0.0
    for _ in range(batches):
        # co-running submitters: start behind, at, or past the busy point
        start = max(0.0, start + rng.uniform(-0.002, 0.004))
        op, commands = random_batch(rng)
        outcomes = []
        for device in devices:
            try:
                outcomes.append(device.submit(op, commands, start))
            except DeviceIOError as exc:
                outcomes.append(str(exc))
            assert device.busy_until == scanned(device)
        assert all(outcome == outcomes[0] for outcome in outcomes), outcomes
        assert len({device.busy_until for device in devices}) == 1


@pytest.mark.parametrize("kind", sorted(DEVICE_PRESETS))
def test_busy_until_matches_unit_scan(kind):
    cls = DEVICE_PRESETS[kind]
    for seed in range(4):
        device, reference = cls(capacity=CAPACITY), scanning_model(cls)(capacity=CAPACITY)
        drive([device, reference], seed, 60)
        # a deep copy carries the high-water mark and stays in step
        clone = copy.deepcopy(device)
        assert clone.busy_until == device.busy_until == scanned(clone)
        drive([device, reference, clone], seed + 100, 40)


@pytest.mark.parametrize("kind", sorted(DEVICE_PRESETS))
def test_busy_until_after_batches_that_fail_part_way(kind):
    """An injected I/O error aborts a batch after earlier commands already
    committed unit time; the high-water mark must include them."""
    cls = DEVICE_PRESETS[kind]
    devices = []
    for model in (cls, scanning_model(cls)):
        plan = FaultPlan(seed=5).io_error("device.submit", probability=0.05, max_fires=0)
        plane = fault_hooks.FaultPlane(plan, active=True)
        with fault_hooks.use(plane):
            devices.append(model(capacity=CAPACITY))
    drive(devices, 11, 120)
    assert devices[0].faults.stats.total > 0
