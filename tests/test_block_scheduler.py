"""Host-side scheduler: kernel cost, shared CPU, tracing."""

from repro.block import BlockScheduler, IoOp
from repro.constants import KIB
from repro.device import make_device
from repro.constants import GIB


def make_sched(kernel=0.00001):
    device = make_device("optane", capacity=1 * GIB)
    return BlockScheduler(device, kernel_overhead_per_request=kernel)


def test_empty_batch_is_free():
    sched = make_sched()
    result = sched.submit(IoOp.READ, [], now=5.0)
    assert result.finish_time == 5.0
    assert result.commands == 0


def test_kernel_cost_scales_with_commands():
    sched = make_sched(kernel=0.001)
    one = sched.submit(IoOp.READ, [(0, 4 * KIB)], now=0.0)
    many_commands = [(i * 64 * KIB, 4 * KIB) for i in range(8)]
    many = sched.submit(IoOp.READ, many_commands, now=one.finish_time)
    assert many.kernel_time == 8 * one.kernel_time


def test_requests_counted():
    sched = make_sched()
    sched.submit(IoOp.READ, [(0, 4 * KIB)], now=0.0)
    sched.submit(IoOp.READ, [(0, 4 * KIB), (64 * KIB, 4 * KIB)], now=1.0)
    assert sched.requests_submitted == 3


def test_tracer_sees_commands():
    sched = make_sched()
    sched.submit(IoOp.WRITE, [(0, 8 * KIB)], now=0.0, tag="me")
    assert sched.tracer.tag("me").write_bytes == 8 * KIB


def test_shared_cpu_serializes_submitters():
    """Two submitters at the same instant contend for kernel CPU."""
    sched = make_sched(kernel=0.001)
    a = sched.submit(IoOp.READ, [(0, 4 * KIB)], now=0.0)
    b = sched.submit(IoOp.READ, [(64 * KIB, 4 * KIB)], now=0.0)
    # b's kernel work had to queue behind a's
    assert b.finish_time > a.finish_time


def test_latency_includes_kernel_and_device():
    sched = make_sched(kernel=0.001)
    result = sched.submit(IoOp.READ, [(0, 4 * KIB)], now=0.0)
    assert result.latency >= 0.001
    assert result.finish_time == result.latency
