"""E11 — Figure 12: hotness-criterion sweep, uniform vs zipfian."""

from repro.bench.experiments import fig12_hotness


def test_fig12_hotness():
    result = fig12_hotness.run()
    print("\n" + result.report())
    uniform = result.sweeps["uniform"]
    zipf = result.sweeps["zipfian"]
    # uniform: both performance and writes grow with the criterion
    assert uniform[-1].throughput_mbps > 1.1 * uniform[0].throughput_mbps
    assert uniform[-1].write_mb > 2.0 * uniform[0].write_mb
    # zipfian: the curve is much flatter than uniform's — a small hot set
    # dominates, so migrating the top 10% already recovers most of the win
    zipf_ratio = zipf[0].throughput_mbps / zipf[-1].throughput_mbps
    uniform_ratio = uniform[0].throughput_mbps / uniform[-1].throughput_mbps
    assert zipf_ratio > uniform_ratio + 0.05
    assert zipf_ratio > 0.75
    # writes stay tiny vs uniform at every criterion
    for z, u in zip(zipf, uniform):
        assert z.write_mb < 0.6 * u.write_mb, z.criterion
    # and even the smallest criterion already beats the fragmented original
    assert zipf[0].throughput_mbps > 1.05 * result.original_mbps["zipfian"]
