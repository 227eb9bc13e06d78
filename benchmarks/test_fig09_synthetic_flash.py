"""E6 — Figure 9: synthetic workloads on the SATA flash SSD."""

import pytest

from repro.bench.experiments import synthetic_defrag


@pytest.mark.parametrize("fs_type", ["ext4", "f2fs"])
def test_fig9_flash(fs_type):
    result = synthetic_defrag.run(fs_type, "flash")
    print("\n" + result.report())
    orig = result.cells["original"]
    conv = result.cells["conv"]
    fp = result.cells["fragpicker"]
    # reads gain from defragmentation (paper: ~+30% on flash)
    assert fp["seq_read"].throughput_mbps > 1.10 * orig["seq_read"].throughput_mbps
    # flash gains less than Optane because its higher media latency hides
    # the per-request overheads: the relative gain stays moderate
    assert fp["seq_read"].throughput_mbps < 2.0 * orig["seq_read"].throughput_mbps
    # update gains are smaller than read gains (out-of-place FTL writes
    # stripe over channels regardless of fragmentation, Section 3.3)
    read_gain = fp["seq_read"].throughput_mbps / orig["seq_read"].throughput_mbps
    update_gain = fp["seq_update"].throughput_mbps / orig["seq_update"].throughput_mbps
    assert update_gain < read_gain
    # FragPicker matches the conventional tool at a fraction of the writes
    assert fp["seq_read"].throughput_mbps > 0.95 * conv["seq_read"].throughput_mbps
    assert fp["stride_read"].throughput_mbps > 0.98 * conv["stride_read"].throughput_mbps
    assert fp["seq_read"].defrag_write_mb < 0.75 * conv["seq_read"].defrag_write_mb
