"""Open-channel (PBA) fragmentation extension."""

import pytest

from repro.constants import BLOCK_SIZE, GIB, KIB
from repro.core import FragPicker, FragPickerConfig, RetryPolicy
from repro.core.openchannel import (
    OpenChannelInspector,
    PbaAwareFragPicker,
    range_is_pba_conflicted,
)
from repro.core.range_list import FileRange
from repro.device import make_device
from repro.errors import InvalidArgument
from repro.faults import FaultPlan
from repro.faults import hooks as fault_hooks
from repro.fs import make_filesystem
from repro.obs import hooks as obs_hooks
from repro.obs.hooks import Instrumentation


def flash_fs():
    device = make_device("flash", capacity=1 * GIB)
    return make_filesystem("ext4", device), device


def concentrate(fs, path="/f", pages=32):
    """Write a file whose pages all land on one channel."""
    handle = fs.open(path, o_direct=True, app="setup", create=True)
    now = fs.write(handle, 0, pages * BLOCK_SIZE, now=0.0).finish_time
    dummy = fs.open("/dummy", o_direct=True, app="setup", create=True)
    doff = 0
    for i in range(pages):
        now = fs.write(handle, i * BLOCK_SIZE, BLOCK_SIZE, now=now).finish_time
        now = fs.write(dummy, doff, 7 * BLOCK_SIZE, now=now).finish_time
        doff += 7 * BLOCK_SIZE
    return now


def test_inspector_requires_flash():
    fs = make_filesystem("ext4", make_device("optane", capacity=1 * GIB))
    with pytest.raises(InvalidArgument):
        OpenChannelInspector(fs.device)


def test_balanced_file_not_conflicted():
    fs, device = flash_fs()
    handle = fs.open("/f", o_direct=True, create=True)
    fs.write(handle, 0, 128 * KIB)
    inspector = OpenChannelInspector(device)
    assert inspector.imbalance(fs, "/f", FileRange(0, 128 * KIB)) == pytest.approx(1.0)
    assert not range_is_pba_conflicted(inspector, fs, "/f", FileRange(0, 128 * KIB))


def test_concentrated_file_detected():
    fs, device = flash_fs()
    concentrate(fs)
    inspector = OpenChannelInspector(device)
    rng = FileRange(0, 32 * BLOCK_SIZE)
    assert inspector.imbalance(fs, "/f", rng) == pytest.approx(device.params.channels)
    assert range_is_pba_conflicted(inspector, fs, "/f", rng)
    histogram = inspector.channel_histogram(fs, "/f", rng)
    assert len(histogram) == 1


def test_stock_fragpicker_blind_to_pba():
    fs, _ = flash_fs()
    now = concentrate(fs)
    report = FragPicker(fs).defragment_bypass(["/f"], now=now)
    assert report.ranges_migrated == 0


def test_pba_picker_fixes_it():
    fs, device = flash_fs()
    now = concentrate(fs)
    picker = PbaAwareFragPicker(fs)
    report = picker.defragment(plans=picker.bypass_plans(["/f"]), now=now)
    assert report.ranges_migrated > 0
    inspector = OpenChannelInspector(device)
    assert inspector.imbalance(fs, "/f", FileRange(0, 32 * BLOCK_SIZE)) < 1.5


def test_pba_picker_also_fixes_lba_fragmentation():
    fs, _ = flash_fs()
    target = fs.open("/lba", o_direct=True, create=True)
    dummy = fs.open("/d", o_direct=True, create=True)
    now = 0.0
    for i in range(8):
        now = fs.write(target, i * 4 * KIB, 4 * KIB, now=now).finish_time
        now = fs.write(dummy, i * 4 * KIB, 4 * KIB, now=now).finish_time
    picker = PbaAwareFragPicker(fs)
    report = picker.defragment(plans=picker.bypass_plans(["/lba"]), now=now)
    assert fs.inode_of("/lba").fragment_count() == 1
    assert report.ranges_migrated > 0


def test_pba_picker_keeps_the_retry_policy():
    # one transient write fault; with attempts=1 the range must fail at
    # once instead of being retried under the default policy
    plane = fault_hooks.arm(FaultPlan().io_error("fs.write", max_fires=1), active=False)
    try:
        fs, _ = flash_fs()
        now = concentrate(fs)
        picker = PbaAwareFragPicker(fs, FragPickerConfig(retry=RetryPolicy(attempts=1)))
        plane.activate()
        report = picker.defragment_bypass(["/f"], now=now)
    finally:
        fault_hooks.disarm()
    assert report.retries == 0
    assert report.ranges_failed == 1


def test_pba_picker_reports_skips_like_the_base_picker():
    obs = Instrumentation()
    with obs_hooks.use(obs):
        fs, _ = flash_fs()
        handle = fs.open("/f", o_direct=True, create=True)
        now = fs.write(handle, 0, 128 * KIB).finish_time
        report = PbaAwareFragPicker(fs).defragment_bypass(["/f"], now=now)
    skips = [e for e in obs.spans.events if e.name == "fragpicker.skip_contiguous"]
    assert report.ranges_skipped_contiguous > 0
    assert len(skips) == report.ranges_skipped_contiguous
