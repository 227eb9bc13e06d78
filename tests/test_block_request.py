"""IoCommand: the block tracer's record of one command."""

import pytest

from repro.block import IoCommand, IoOp


def test_end():
    assert IoCommand(IoOp.READ, 100, 50).end == 150


def test_frozen():
    cmd = IoCommand(IoOp.READ, 0, 10)
    with pytest.raises(Exception):
        cmd.length = 20
