"""The per-op record contract: field order, defaults, properties,
immutability and pickling.

The records built once per syscall, command or trace op are
NamedTuples.  Callers construct them positionally and by keyword, read
them by attribute, and ``IoOp`` and ``FaultFire`` must pickle, so each
of those must keep working.
"""

import pickle

import pytest

from repro.block.scheduler import SubmitResult
from repro.device.base import BatchResult, CommandPlan
from repro.faults.hooks import FaultFire
from repro.fs.base import SyscallEvent, SyscallResult
from repro.fs.readahead import ReadPlan
from repro.types import IoOp

#: each record type, the field order callers rely on, and one instance
RECORDS = [
    (
        SyscallEvent,
        ("op", "app", "ino", "path", "offset", "size", "o_direct", "time"),
        SyscallEvent("read", "app", 3, "/f", 4096, 8192, True, 0.5),
    ),
    (
        SyscallResult,
        ("finish_time", "latency", "requests", "bytes_transferred", "data"),
        SyscallResult(1.5, 0.25, 2, 8192, b"xy"),
    ),
    (
        SubmitResult,
        ("finish_time", "latency", "commands", "kernel_time", "device_time"),
        SubmitResult(1.0, 0.5, 3, 9e-6, 0.4),
    ),
    (
        CommandPlan,
        ("controller_time", "unit_work", "link_bytes", "penalty_time"),
        CommandPlan(1e-5, ((0, 2e-5), (1, 3e-5)), 8192, 1e-6),
    ),
    (
        BatchResult,
        ("start_time", "finish_time", "service_time", "commands"),
        BatchResult(1.0, 1.25, 0.2, 4),
    ),
    (
        ReadPlan,
        ("fetch_start", "fetch_end", "sequential"),
        ReadPlan(4096, 135168, True),
    ),
    (
        FaultFire,
        ("rule_index", "kind", "site", "op", "now", "latency", "torn_length"),
        FaultFire(2, "torn", "fs.write", "write", 0.75, None, 4096),
    ),
    (
        IoOp,
        ("op", "file_id", "offset", "size", "time", "o_direct"),
        IoOp("write", 7, 65536, 4096, 0.125, False),
    ),
]

IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, fields, record", RECORDS, ids=IDS)
def test_field_order(cls, fields, record):
    assert cls._fields == fields
    # keyword construction names the same slots as positional
    assert cls(**dict(zip(fields, record))) == record


@pytest.mark.parametrize("cls, fields, record", RECORDS, ids=IDS)
def test_assignment_raises(cls, fields, record):
    with pytest.raises(AttributeError):
        setattr(record, fields[0], getattr(record, fields[0]))


@pytest.mark.parametrize("cls, fields, record", RECORDS, ids=IDS)
def test_pickle_round_trip(cls, fields, record):
    clone = pickle.loads(pickle.dumps(record))
    assert type(clone) is cls
    assert clone == record


def test_defaults():
    assert SyscallResult(1.0, 0.5, 0, 0).data is None
    op = IoOp("read", 0, 0, 4096)
    assert op.time == 0.0 and op.o_direct is True
    plan = CommandPlan(1e-5)
    assert plan.unit_work == ()
    assert plan.link_bytes == 0
    assert plan.penalty_time == 0.0
    fire = FaultFire(0, "latency", "fs.read", "read", 0.0)
    assert fire.latency is None and fire.torn_length == 0


def test_properties():
    assert BatchResult(1.0, 1.25, 0.2, 4).latency == 0.25
    assert ReadPlan(4096, 135168, True).length == 131072
    assert IoOp("write", 7, 65536, 4096).end == 69632
