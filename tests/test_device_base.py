"""StorageDevice batch/timeline semantics."""

import pytest

from repro.block import IoOp
from repro.constants import BLOCK_SIZE, GIB, KIB, MIB
from repro.device import make_device
from repro.errors import DeviceError


def read(offset, length=4 * KIB):
    return (offset, length)


def test_empty_batch():
    device = make_device("optane", capacity=1 * GIB)
    result = device.submit(IoOp.READ, [], start_time=3.0)
    assert result.finish_time == 3.0
    assert result.commands == 0


def test_capacity_enforced():
    device = make_device("optane", capacity=1 * GIB)
    with pytest.raises(DeviceError):
        device.submit(IoOp.READ, [read(1 * GIB)], 0.0)


@pytest.mark.parametrize("kind", ["hdd", "microsd", "flash", "optane"])
def test_negative_offset_rejected(kind):
    device = make_device(kind, capacity=64 * MIB)
    write = (0, 16 * BLOCK_SIZE)
    device.submit(IoOp.WRITE, [write], 0.0)
    stats = device.stats.snapshot()
    for op in (IoOp.READ, IoOp.WRITE, IoOp.DISCARD):
        with pytest.raises(DeviceError, match="beyond capacity"):
            device.submit(op, [write, (-BLOCK_SIZE, BLOCK_SIZE)], 1.0)
    # the batch is rejected before any command runs
    assert device.stats.snapshot() == stats


def test_negative_offset_leaves_flash_channels_alone():
    """A write at -4096 used to map lpn -1 and set ``_chan[-1]``, moving
    lpn 15's read channel while the mapping still named another."""
    device = make_device("flash", capacity=64 * MIB)
    device.submit(IoOp.WRITE, [(0, 16 * BLOCK_SIZE)], 0.0)
    channels = [device.ftl.channel_of(lpn) for lpn in range(16)]
    with pytest.raises(DeviceError):
        device.submit(IoOp.WRITE, [(-BLOCK_SIZE, BLOCK_SIZE)], 1.0)
    assert [device.ftl.channel_of(lpn) for lpn in range(16)] == channels
    assert sorted(device.ftl.mapping) == list(range(16))


def test_batch_completion_is_synchronous():
    """A batch finishes only when every split command finished."""
    device = make_device("optane", capacity=1 * GIB)
    single = device.submit(IoOp.READ, [read(0, 128 * KIB)], 0.0)
    device2 = make_device("optane", capacity=1 * GIB)
    split = device2.submit(IoOp.READ, [read(i * 64 * KIB) for i in range(32)], 0.0)
    assert split.commands == 32
    assert split.finish_time > single.finish_time


def test_queuing_device_overlaps_submitters():
    """Optane banks let a small command overlap a big one on other banks."""
    device = make_device("optane", capacity=1 * GIB)
    # a batch hammering bank 0 only (offsets stride 16 KiB = 4 pages)
    big = device.submit(IoOp.READ, [read(i * 16 * KIB) for i in range(16)], 0.0)
    # a 4 KiB read on bank 1, submitted at the same instant, overlaps
    small = device.submit(IoOp.READ, [read(1 * 4 * KIB)], 0.0)
    assert small.finish_time < big.finish_time


def test_non_queuing_device_serializes():
    device = make_device("microsd", capacity=1 * GIB)
    first = device.submit(IoOp.READ, [read(0, 128 * KIB)], 0.0)
    second = device.submit(IoOp.READ, [read(256 * KIB)], 0.0)
    assert second.finish_time > first.finish_time


def test_stats_accumulate():
    device = make_device("flash", capacity=1 * GIB)
    device.submit(IoOp.READ, [read(0, 8 * KIB)], 0.0)
    device.submit(IoOp.WRITE, [(0, 4 * KIB)], 1.0)
    device.submit(IoOp.DISCARD, [(0, 64 * KIB)], 2.0)
    assert device.stats.read_bytes == 8 * KIB
    assert device.stats.write_bytes == 4 * KIB
    assert device.stats.discard_bytes == 64 * KIB
    assert device.stats.total_commands == 3


def test_busy_until_moves_forward():
    device = make_device("flash", capacity=1 * GIB)
    assert device.busy_until == 0.0
    result = device.submit(IoOp.READ, [read(0, 128 * KIB)], 5.0)
    assert device.busy_until >= result.finish_time - 1e-12


def test_listener_called():
    device = make_device("optane", capacity=1 * GIB)
    seen = []
    device.add_listener(
        lambda op, ranges, start, finish: seen.append((op, len(ranges), start, finish))
    )
    device.submit(IoOp.READ, [read(0)], 1.0)
    assert seen and seen[0][:3] == (IoOp.READ, 1, 1.0)
