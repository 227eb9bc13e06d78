"""E12 — ablation: the request-splitting mechanism itself."""

from repro.bench.experiments import ablation_splitting
from repro.constants import KIB


def test_request_splitting():
    result = ablation_splitting.run()
    print("\n" + result.report())
    by_size = {p.frag_size: p for p in result.points}
    # one syscall -> one command only once fragments reach the request size
    assert by_size[4 * KIB].commands_per_syscall == 32.0
    assert by_size[128 * KIB].commands_per_syscall == 1.0
    # kernel work scales linearly with the split count
    assert by_size[4 * KIB].kernel_time_us > 20 * by_size[128 * KIB].kernel_time_us
    # latency decreases monotonically as fragments grow
    latencies = [p.latency_us for p in result.points]
    assert latencies == sorted(latencies, reverse=True)
