"""E10 — Figure 11: fileserver grep cost on F2FS (flash + Optane)."""

import pytest

from repro.bench.experiments import fig11_fileserver


@pytest.mark.parametrize("device", ["flash", "optane"])
def test_fig11_fileserver(device):
    result = fig11_fileserver.run(device)
    print("\n" + result.report())
    orig = result.cells["original"]
    conv = result.cells["conv"]
    fp = result.cells["fragpicker"]
    # the file set aged hard
    assert result.fragments_before > 30
    # defragmentation cuts the grep cost substantially (paper: 29-37%)
    assert fp.grep_cost < 0.85 * orig.grep_cost
    # FragPicker is within a few percent of the full-migration tool
    assert fp.grep_cost < 1.05 * conv.grep_cost
    # while writing much less (paper: 44-52% lower)
    assert fp.defrag_write_mb < 0.70 * conv.defrag_write_mb
    # fragments per file collapse (paper: 1395 -> 1.77 / 1068 -> 2.48)
    assert fp.avg_fragments < 8
