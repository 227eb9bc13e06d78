"""E15 — extension: open-channel (PBA) fragmentation (paper Section 6)."""

from repro.bench.experiments import ext_pba_defrag


def test_pba_defrag():
    result = ext_pba_defrag.run()
    print("\n" + result.report())
    # physical concentration destroys parallelism despite clean LBAs
    assert result.conflicted_mbps < 0.5 * result.balanced_mbps
    assert result.imbalance_before > 4.0
    # filefrag-based FragPicker is blind to it (the paper's stated limit)
    assert result.stock_migrated == 0
    assert result.stock_fragpicker_mbps < 1.05 * result.conflicted_mbps
    # the open-channel extension restores the parallelism
    assert result.pba_migrated > 0
    assert result.pba_fragpicker_mbps > 0.9 * result.balanced_mbps
    assert result.imbalance_after < 1.5
