"""E4 — Section 3.3 (text): sequential O_DIRECT update sweeps."""

from repro.bench.experiments import sec33_update_sweep


def test_update_sweep():
    result = sec33_update_sweep.run()
    print("\n" + result.report())
    summary = result.summary()
    # updates on Optane are fragmentation-sensitive (in-place banks)
    assert summary["optane"]["update_nlrs"] > 0.001
    # flash updates are *less* sensitive than flash reads: the FTL stripes
    # new pages over channels regardless of LBA fragmentation
    assert summary["flash"]["update_nlrs"] < summary["flash"]["read_nlrs"]
    # and Optane's update sensitivity exceeds flash's
    assert summary["optane"]["update_nlrs"] > summary["flash"]["update_nlrs"]
