"""The unified IoOp workload record."""

import pytest

from repro.types import IO_OP_KINDS, IoOp


def test_io_op_kinds_cover_the_syscall_surface():
    assert IO_OP_KINDS == ("read", "write", "fsync")


def test_io_op_defaults_and_end():
    op = IoOp("read", 3, 4096, 8192)
    assert op.time == 0.0
    assert op.o_direct is True
    assert op.end == 12288


def test_io_op_is_frozen_and_hashable():
    op = IoOp("write", 0, 0, 4096, 1.5, False)
    with pytest.raises(AttributeError):
        op.offset = 100
    assert op == IoOp("write", 0, 0, 4096, 1.5, False)
    assert len({op, IoOp("write", 0, 0, 4096, 1.5, False)}) == 1


def test_io_op_equality_distinguishes_flags():
    assert IoOp("read", 0, 0, 4096) != IoOp("read", 0, 0, 4096, o_direct=False)
