"""Flash SSD: channel parallelism, conflicts, out-of-place updates."""

import copy

from repro.block import IoOp
from repro.constants import GIB, KIB, MIB
from repro.device.base import CommandPlan
from repro.device.flash import INTERFACE_RATE, PAGE_PROGRAM, PAGE_READ, FlashParams, FlashSsd
from repro.fs import make_filesystem


def read(offset, length=4 * KIB):
    return (offset, length)


def write(offset, length=4 * KIB):
    return (offset, length)


def test_contiguous_read_uses_all_channels():
    ssd = FlashSsd(capacity=1 * GIB)
    big = ssd.submit(IoOp.READ, [read(0, 128 * KIB)], 0.0)
    # 32 pages over 8 channels: ~4 pages of serial flash time, not 32
    assert big.latency < 32 * PAGE_READ


def test_channel_conflict_hurts():
    """Pages concentrated on one channel lose the parallelism."""
    ssd = FlashSsd(capacity=1 * GIB)
    # address-striped: pages k*8 all live on channel 0
    conflicted = ssd.submit(IoOp.READ, [read(i * 8 * 4 * KIB) for i in range(16)], 0.0)
    ssd2 = FlashSsd(capacity=1 * GIB)
    spread = ssd2.submit(IoOp.READ, [read(i * 4 * KIB) for i in range(16)], 0.0)
    assert conflicted.latency > 1.5 * spread.latency


def test_updates_stripe_regardless_of_address():
    """Out-of-place FTL writes spread over channels even for conflicting
    LBAs — why fragmented updates hurt less than reads on flash."""
    ssd = FlashSsd(capacity=1 * GIB)
    conflicting_lbas = [write(i * 8 * 4 * KIB) for i in range(16)]
    w = ssd.submit(IoOp.WRITE, conflicting_lbas, 0.0)
    ssd2 = FlashSsd(capacity=1 * GIB)
    r = ssd2.submit(IoOp.READ, [read(i * 8 * 4 * KIB) for i in range(16)], 0.0)
    # writes don't pay the channel conflict the reads pay (beyond the
    # program-vs-read latency ratio)
    ratio = PAGE_PROGRAM / PAGE_READ
    assert w.latency < r.latency * ratio


def test_read_follows_write_channel():
    ssd = FlashSsd(capacity=1 * GIB)
    ssd.submit(IoOp.WRITE, [write(0, 64 * KIB)], 0.0)
    pages = range(0, 16)
    channels = {ssd.ftl.channel_of(p) for p in pages}
    assert len(channels) == ssd.params.channels


def test_link_caps_throughput():
    ssd = FlashSsd(capacity=1 * GIB)
    result = ssd.submit(IoOp.READ, [read(0, 4 * MIB)], 0.0)
    assert result.latency >= 4 * MIB / INTERFACE_RATE


def test_discard_invalidates_mapping():
    ssd = FlashSsd(capacity=1 * GIB)
    ssd.submit(IoOp.WRITE, [write(0, 32 * KIB)], 0.0)
    assert 0 in ssd.ftl.mapping
    ssd.submit(IoOp.DISCARD, [(0, 32 * KIB)], 1.0)
    assert 0 not in ssd.ftl.mapping


def test_describe_reports_wear():
    ssd = FlashSsd(capacity=1 * GIB)
    ssd.submit(IoOp.WRITE, [write(0, 128 * KIB)], 0.0)
    info = ssd.describe()
    assert info["kind"] == "flash"
    assert info["write_amplification"] >= 1.0


def test_deep_copied_flash_volume_copies_no_plan_memo():
    """The plan memos are shared by every flash device: a cloned volume
    holds none of its own, and a plan either of them builds serves the
    other."""
    fs = make_filesystem("ext4", FlashSsd(capacity=1 * GIB))
    handle = fs.open("/f", create=True, o_direct=True)
    fs.write(handle, 0, 1 * MIB)
    fs.read(handle, 0, 1 * MIB)
    clone = copy.deepcopy(fs)
    assert not [
        name for name, value in vars(clone.device).items()
        if isinstance(value, dict)
        and any(isinstance(item, CommandPlan) for item in value.values())
    ]
    for op in (IoOp.READ, IoOp.WRITE):
        built = clone.device._plan_command(op, 2 * MIB, 36 * KIB)
        assert fs.device._plan_command(op, 2 * MIB, 36 * KIB) is built


def test_write_plans_are_keyed_on_the_channel_count():
    """Two geometries write the same pages from the same first channel:
    each plan stripes over its own device's channels."""
    for channels in (8, 4, 8):
        ssd = FlashSsd(capacity=1 * GIB, params=FlashParams(channels=channels))
        plan = ssd._plan_command(IoOp.WRITE, 0, 16 * 4 * KIB)
        assert [channel for channel, _ in plan.unit_work] == list(range(channels))
        assert [work for _, work in plan.unit_work] == [16 // channels * PAGE_PROGRAM] * channels
