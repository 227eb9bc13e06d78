"""Optane: in-place banks, update sensitivity, endurance."""

import copy

from repro.block import IoOp
from repro.constants import BLOCK_SIZE, GIB, KIB, MIB
from repro.device import optane
from repro.device.optane import BANKS, OptaneSsd
from repro.fs import make_filesystem


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


def test_deep_copied_optane_volume_shares_the_prefix_tables():
    """The repeated-addition tables are module state: a cloned volume
    holds no float table of its own, and a longer command planned on the
    clone grows the one table both devices read."""
    fs = make_filesystem("ext4", OptaneSsd(capacity=1 * GIB))
    handle = fs.open("/f", create=True, o_direct=True)
    fs.write(handle, 0, 1 * MIB)
    fs.read(handle, 0, 1 * MIB)
    clone = copy.deepcopy(fs)
    assert not [
        name for name, value in vars(clone.device).items()
        if isinstance(value, list) and value and isinstance(value[0], float)
    ]
    for op, sums in ((IoOp.READ, optane._READ_SUMS),
                     (IoOp.WRITE, optane._WRITE_SUMS)):
        longer = len(sums) * BANKS * BLOCK_SIZE
        before = list(sums)
        clone.device._plan_command(op, 0, longer)
        assert len(sums) > len(before) and sums[:len(before)] == before
        assert fs.device._plan_command(op, 0, longer) is (
            clone.device._plan_command(op, 0, longer))
