"""HDD: seeks, rotation, serialization."""

from repro.block import IoOp
from repro.constants import GIB, KIB, MIB
from repro.device.hdd import HddDevice


def read(offset, length=128 * KIB):
    return (offset, length)


def test_seek_monotone_in_distance():
    hdd = HddDevice(capacity=4 * GIB)
    times = [hdd.seek_time(d) for d in [4 * KIB, 1 * MIB, 64 * MIB, 1 * GIB]]
    assert times == sorted(times)
    assert times[0] > 0


def test_sequential_access_skips_seek():
    hdd = HddDevice(capacity=4 * GIB)
    first = hdd.submit(IoOp.READ, [read(0)], 0.0)
    sequential = hdd.submit(IoOp.READ, [read(128 * KIB)], first.finish_time)
    hdd2 = HddDevice(capacity=4 * GIB)
    hdd2.submit(IoOp.READ, [read(0)], 0.0)
    random = hdd2.submit(IoOp.READ, [read(1 * GIB)], first.finish_time)
    assert sequential.latency < random.latency


def test_fragmentation_costs_seeks():
    hdd = HddDevice(capacity=4 * GIB)
    contig = hdd.submit(IoOp.READ, [read(0, 128 * KIB)], 0.0)
    hdd2 = HddDevice(capacity=4 * GIB)
    frag = hdd2.submit(IoOp.READ, [read(i * 1 * MIB, 4 * KIB) for i in range(32)], 0.0)
    assert frag.latency > 10 * contig.latency


def test_discard_is_cheap():
    hdd = HddDevice(capacity=4 * GIB)
    trim = hdd.submit(IoOp.DISCARD, [(1 * GIB, 64 * MIB)], 0.0)
    assert trim.latency < 0.001


def test_head_position_tracked():
    hdd = HddDevice(capacity=4 * GIB)
    hdd.submit(IoOp.READ, [read(0, 64 * KIB)], 0.0)
    assert hdd.head_position == 64 * KIB
