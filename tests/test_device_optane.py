"""Optane: in-place banks, update sensitivity, endurance."""

from repro.block import IoOp
from repro.constants import GIB, KIB, MIB
from repro.device.optane import OptaneSsd


def test_bank_interleaving():
    ssd = OptaneSsd(capacity=1 * GIB)
    assert [ssd.bank_of(i) for i in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]


def test_bank_conflict_hurts_reads_and_writes():
    """In-place: both ops are address-bound (unlike flash writes)."""
    for op in (IoOp.READ, IoOp.WRITE):
        conflicted_cmds = [(i * 4 * 4 * KIB, 4 * KIB) for i in range(16)]
        spread_cmds = [(i * 4 * KIB, 4 * KIB) for i in range(16)]
        a = OptaneSsd(capacity=1 * GIB).submit(op, conflicted_cmds, 0.0)
        b = OptaneSsd(capacity=1 * GIB).submit(op, spread_cmds, 0.0)
        assert a.latency > 1.5 * b.latency, op


def test_low_latency_small_read():
    ssd = OptaneSsd(capacity=1 * GIB)
    result = ssd.submit(IoOp.READ, [(0, 4 * KIB)], 0.0)
    assert result.latency < 0.0001  # ~tens of microseconds


def test_endurance_accounting():
    ssd = OptaneSsd(capacity=1 * GIB)
    assert ssd.endurance_consumed == 0.0
    ssd.submit(IoOp.WRITE, [(0, 100 * MIB)], 0.0)
    assert ssd.endurance_consumed > 0.0
    assert ssd.lifetime_write_budget == ssd.capacity * 10.0 * 5 * 365


def test_discard_cheap():
    ssd = OptaneSsd(capacity=1 * GIB)
    result = ssd.submit(IoOp.DISCARD, [(0, 64 * MIB)], 0.0)
    assert result.latency < 0.0001
