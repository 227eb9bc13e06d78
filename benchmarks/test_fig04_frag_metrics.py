"""E2/E3 — Figure 4 and Table 1: frag_size / frag_distance sweeps."""

from repro.bench.experiments import fig4_frag_metrics
from repro.constants import KIB

MODERN = ("microsd", "flash", "optane")


def test_fig4_and_table1():
    result = fig4_frag_metrics.run()
    print("\n" + result.figure4())
    print("\n" + result.table1())
    for device, sweep in result.sweeps.items():
        row = sweep.table1_row()
        # frag size below the request size strongly correlates with
        # performance on every device
        assert row["cc_size_before"] > 0.6, device
        if device in MODERN:
            # the 128 KiB knee: the slope collapses by >= 10x beyond it
            assert row["nlrs_size_after"] < row["nlrs_size_before"] / 10.0, device
            # frag distance is irrelevant on seekless devices
            assert abs(row["nlrs_distance"]) < row["nlrs_size_before"] / 100.0, device
    hdd = result.sweeps["hdd"].table1_row()
    # the HDD keeps gaining past the request size (seek span shrinks)...
    assert hdd["nlrs_size_after"] > result.sweeps["flash"].table1_row()["nlrs_size_before"]
    # ...and is the only device hurt by fragment distance
    assert hdd["cc_distance"] < -0.4
    # MicroSD is the most request-count-sensitive modern device (no queuing)
    micro = result.sweeps["microsd"].table1_row()
    assert micro["nlrs_size_before"] > result.sweeps["flash"].table1_row()["nlrs_size_before"]
    # kernel overheads make Optane steeper than flash below the knee
    assert (result.sweeps["optane"].table1_row()["nlrs_size_before"]
            > result.sweeps["flash"].table1_row()["nlrs_size_before"])
    # MicroSD's demand mapping cache keeps paying a little beyond 128 KiB
    curve = result.sweeps["microsd"].size_curve
    assert curve[512 * KIB] > curve[128 * KIB]
