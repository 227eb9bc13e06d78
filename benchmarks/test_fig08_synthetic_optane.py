"""E5 — Figure 8: synthetic workloads on the Optane SSD (Ext4/F2FS/Btrfs)."""

import pytest

from repro.bench.experiments import synthetic_defrag


def _common_checks(result):
    orig = result.cells["original"]
    conv = result.cells["conv"]
    fp = result.cells["fragpicker"]
    # defragmentation helps reads substantially
    assert conv["seq_read"].throughput_mbps > 1.2 * orig["seq_read"].throughput_mbps
    # FragPicker reaches the conventional tool's performance...
    for pattern in ("seq_read", "stride_read"):
        assert fp[pattern].throughput_mbps > 0.95 * conv[pattern].throughput_mbps, pattern
    # ...while writing much less
    assert fp["seq_read"].defrag_write_mb < 0.75 * conv["seq_read"].defrag_write_mb
    assert fp["stride_read"].defrag_write_mb < 0.60 * conv["stride_read"].defrag_write_mb


@pytest.mark.parametrize("fs_type", ["ext4", "f2fs"])
def test_fig8_ext4_f2fs(fs_type):
    result = synthetic_defrag.run(fs_type, "optane")
    print("\n" + result.report())
    _common_checks(result)
    orig = result.cells["original"]
    fp = result.cells["fragpicker"]
    fpb = result.cells["fragpicker_b"]
    conv = result.cells["conv"]
    # updates are fragmentation-sensitive on in-place-updating stacks
    assert fp["seq_update"].throughput_mbps > 1.2 * orig["seq_update"].throughput_mbps
    assert fp["seq_update"].throughput_mbps > 0.95 * conv["seq_update"].throughput_mbps
    # the bypass option matches FragPicker on sequential reads
    assert fpb["seq_read"].throughput_mbps > 0.98 * fp["seq_read"].throughput_mbps
    # but loses on stride reads (misaligned plans) while writing more
    assert fpb["stride_read"].throughput_mbps < fp["stride_read"].throughput_mbps
    assert fpb["stride_read"].defrag_write_mb > fp["stride_read"].defrag_write_mb


def test_fig8_btrfs_with_threshold():
    result = synthetic_defrag.run("btrfs", "optane")
    print("\n" + result.report())
    _common_checks(result)
    orig = result.cells["original"]
    conv = result.cells["conv"]
    conv_t = result.cells["conv_t"]
    fp = result.cells["fragpicker"]
    # Btrfs updates out of place: defragmentation cannot help update
    # throughput (Section 5.2.1)
    assert abs(conv["seq_update"].throughput_mbps - orig["seq_update"].throughput_mbps) \
        < 0.05 * orig["seq_update"].throughput_mbps
    # the -t threshold option still request-splits stride reads...
    assert conv_t["stride_read"].throughput_mbps < 0.99 * fp["stride_read"].throughput_mbps
    # ...while writing more than FragPicker
    assert conv_t["stride_read"].defrag_write_mb > fp["stride_read"].defrag_write_mb
