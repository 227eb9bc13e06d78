"""Cross-layer invariant: the block tracer and the device count the same traffic.

Every batch the filesystem submits is counted twice: by the block
tracer, per origin tag, and by the device, in ``DeviceStats``.  With no
faults armed every command runs, so after every syscall the tracer's
per-tag counters summed per op must equal the device's counters, in
bytes and in commands.  Seeded syscall streams drive each filesystem on
each device model: buffered and O_DIRECT reads and writes, eviction
writeback from a small page cache, fsync and sync (journal commits),
punch-hole and allocate, truncate, unlink and fstrim discards.  A second stream reads a fragmented, punched file
through the page cache across a stamp-chunk boundary while only some of
its pages are resident, so one read's misses come back as several runs.
"""

import random

import pytest

from repro.block import IoOp, TrafficCounter
from repro.constants import BLOCK_SIZE, MIB
from repro.device import make_device
from repro.errors import DeviceError, FaultError
from repro.faults import FaultPlan, FaultPlane
from repro.faults import hooks as fault_hooks
from repro.faults.hooks import BLOCK_SITE
from repro.fs import make_filesystem
from repro.fs.base import FallocMode
from repro.fs.page_cache import CHUNK
from repro.tools.fstrim import Fstrim

FILES = ("/a", "/b", "/c", "/d")
SPAN = 256  # file span, in blocks
STEPS = 250


def _traffic(counter):
    return tuple(
        getattr(counter, f"{op.value}_{field}")
        for op in IoOp for field in ("bytes", "commands")
    )


def _tracer_sum(tracer):
    total = [0] * 6
    for counter in tracer.by_tag.values():
        for i, value in enumerate(_traffic(counter)):
            total[i] += value
    return tuple(total)


def _syscalls(fs, rng, errors=()):
    """Seeded syscalls against ``fs``; yields each one's name after it ran
    (``"raised"`` for one that raised one of ``errors``)."""
    handles = {}
    now = 0.0
    for _ in range(STEPS):
        path = rng.choice(FILES)
        if path not in handles:
            handles[path] = (
                fs.open(path, o_direct=False, app="buffered", create=True),
                fs.open(path, o_direct=True, app="direct"),
            )
        buffered, direct = handles[path]
        handle = direct if rng.random() < 0.4 else buffered
        offset = rng.randrange(SPAN) * BLOCK_SIZE
        length = rng.choice((1, 2, 8, 32, 64)) * BLOCK_SIZE
        roll = rng.random()
        try:
            if roll < 0.35:
                name, result = "write", fs.write(handle, offset, length, now=now)
            elif roll < 0.65:
                name, result = "read", fs.read(handle, offset, length, now=now)
            elif roll < 0.72:
                name, result = "fsync", fs.fsync(handle, now=now)
            elif roll < 0.75:
                name, result = "sync", fs.sync(now=now)
            elif roll < 0.81:
                mode = rng.choice((FallocMode.PUNCH_HOLE, FallocMode.ALLOCATE))
                name, result = "fallocate", fs.fallocate(handle, mode, offset, length, now=now)
            elif roll < 0.85:
                name, result = "truncate", fs.truncate(handle, offset, now=now)
            elif roll < 0.88:
                del handles[path]
                fs.unlink(path, now=now)
                name, result = "unlink", None
            elif roll < 0.91:
                fs.drop_caches()
                name, result = "drop_caches", None
            elif roll < 0.97:
                now += Fstrim(fs, max_discard_size=4 * MIB).run(now=now).elapsed
                name = "fstrim"
            else:
                name, result = "read", fs.read(buffered, 0, SPAN * BLOCK_SIZE, now=now)
        except errors:
            name, result = "raised", None
        if name not in ("fstrim", "raised") and result is not None:
            now = result.finish_time
        yield name


@pytest.mark.parametrize("device", ["optane", "flash", "microsd", "hdd"])
@pytest.mark.parametrize("fs_type", ["ext4", "f2fs", "btrfs"])
def test_tracer_sums_equal_device_stats_after_every_syscall(fs_type, device):
    fs = make_filesystem(
        fs_type, make_device(device, capacity=256 * MIB), page_cache_pages=96,
    )
    rng = random.Random(f"{fs_type}-{device}")
    for step, name in enumerate(_syscalls(fs, rng)):
        assert _tracer_sum(fs.tracer) == _traffic(fs.device.stats), (step, name)
    stats = fs.device.stats
    # the stream reached every op and the eviction writeback path
    assert stats.read_commands and stats.write_commands and stats.discard_commands
    assert fs.tracer.tag("writeback").write_commands > 0
    assert fs.tracer.tag("meta").write_commands > 0


def _count_raising_batches(fs):
    """Record what ran in batches that raised: a command ran once the
    device planned it (a torn write plans its surviving prefix).  Returns
    the counter the records go into."""
    ran, planned = TrafficCounter(), []
    plan_command, submit = fs.device._plan_command, fs.scheduler.submit

    def recorded_plan(op, offset, length):
        plan = plan_command(op, offset, length)
        planned.append((op, length))
        return plan

    def recorded_submit(op, ranges, now=0.0, tag=""):
        planned.clear()
        try:
            return submit(op, ranges, now, tag)
        except (DeviceError, FaultError):
            for command_op, length in planned:
                ran.add(command_op, length)
            raise

    fs.device._plan_command = recorded_plan
    fs.scheduler.submit = recorded_submit
    return ran


@pytest.mark.parametrize("device", ["optane", "flash", "microsd", "hdd"])
@pytest.mark.parametrize("fs_type", ["ext4", "f2fs", "btrfs"])
def test_device_counts_what_ran_in_raising_batches_and_the_tracer_does_not(
    fs_type, device,
):
    """Under faults, a batch that raises part-way is counted by the device
    for the commands that ran and not at all by the tracer, so after every
    syscall the device's counters exceed the tracer's sums by exactly what
    ran in raising batches, in bytes and in commands."""
    plan = (
        FaultPlan(seed=7)
        .latency_spike("device.submit", probability=0.05, max_fires=0)
        .torn_write("device.submit", torn_fraction=0.5, probability=0.06, max_fires=0)
        .io_error("device.submit", probability=0.03, max_fires=0)
        .crash("device.submit", after_ops=100)
        .io_error(BLOCK_SITE, probability=0.02, max_fires=0)
    )
    plane = FaultPlane(plan, active=True)
    with fault_hooks.use(plane):
        fs = make_filesystem(
            fs_type, make_device(device, capacity=256 * MIB), page_cache_pages=96,
        )
        ran = _count_raising_batches(fs)
        rng = random.Random(f"faulted-{fs_type}-{device}")
        for step, name in enumerate(_syscalls(fs, rng, (DeviceError, FaultError))):
            device_side = _traffic(fs.device.stats)
            tracer_side = _tracer_sum(fs.tracer)
            assert tuple(d - t for d, t in zip(device_side, tracer_side)) == \
                _traffic(ran), (step, name)
    kinds = {(fire.site, fire.kind) for fire in plane.stats.fires}
    assert {("device.submit", "torn"), ("device.submit", "io_error"),
            ("device.submit", "crash"), (BLOCK_SITE, "io_error")} <= kinds
    # some raising batches had run commands before they raised
    assert ran.total_commands > 0


@pytest.mark.parametrize("fs_type", ["ext4", "f2fs", "btrfs"])
def test_writeback_splits_each_page_run_on_its_own(fs_type):
    """Writeback is one batch, but each dirty page run is split on its
    own: two runs that land back to back on disk stay two commands."""
    fs = make_filesystem(fs_type, make_device("optane", capacity=256 * MIB))
    handle = fs.open("/f", create=True, app="t")
    fs.write(handle, 0, 4 * BLOCK_SIZE)
    fs.write(handle, 5 * BLOCK_SIZE, 3 * BLOCK_SIZE)  # page 4 stays a hole
    result = fs.fsync(handle)
    first, second = fs.inode_of("/f").extent_map.extents()
    assert first.disk_end == second.disk_offset  # adjacent on disk
    counter = fs.tracer.tag("t")
    assert (counter.write_commands, counter.write_bytes) == (2, 7 * BLOCK_SIZE)
    assert result.requests == 3  # the two runs and the journal commit


def _partial_residency_reads(fs, rng):
    """Buffered reads around page ``CHUNK`` of a fragmented file with
    holes, over a cache that holds some of its pages; yields each
    syscall's name after it ran."""
    pages = CHUNK + 192
    big = fs.open("/big", app="writer", create=True)
    other = fs.open("/other", app="writer", create=True)
    now = 0.0
    for first in range(0, pages, 16):
        now = fs.write(big, first * BLOCK_SIZE, 16 * BLOCK_SIZE, now=now).finish_time
        yield "write"
        now = fs.write(other, first * BLOCK_SIZE, 4 * BLOCK_SIZE, now=now).finish_time
        yield "write"
        if first % 64 == 0:
            now = fs.fsync(big, now=now).finish_time
            yield "fsync"
    now = fs.sync(now=now).finish_time
    yield "sync"
    for first in (CHUNK - 40, CHUNK - 3, CHUNK + 9):
        now = fs.fallocate(
            big, FallocMode.PUNCH_HOLE, first * BLOCK_SIZE, 2 * BLOCK_SIZE, now=now,
        ).finish_time
        yield "fallocate"
    fs.drop_caches()
    reader = fs.open("/big", app="reader")
    for _ in range(40):  # scattered single pages: partial residency
        page = rng.randrange(CHUNK - 96, CHUNK + 96)
        now = fs.read(reader, page * BLOCK_SIZE, BLOCK_SIZE, now=now).finish_time
        yield "read"
    for _ in range(12):  # wide reads over resident and missing pages
        first = rng.randrange(CHUNK - 160, CHUNK)
        length = rng.randrange(32, 256) * BLOCK_SIZE
        now = fs.read(reader, first * BLOCK_SIZE, length, now=now).finish_time
        yield "read"
        if rng.random() < 0.3:
            fs.drop_caches()
    offset = (CHUNK - 256) * BLOCK_SIZE
    while offset < pages * BLOCK_SIZE:  # sequential, with readahead
        now = fs.read(reader, offset, 16 * BLOCK_SIZE, now=now).finish_time
        yield "read"
        offset += 16 * BLOCK_SIZE


@pytest.mark.parametrize("device", ["flash", "hdd"])
@pytest.mark.parametrize("fs_type", ["ext4", "f2fs", "btrfs"])
def test_buffered_misses_across_a_chunk_boundary_count_once(fs_type, device):
    """Each buffered miss is one batch built from several page runs;
    tracer and device still agree after every syscall, and the stream
    did make multi-run misses and a missing run across page ``CHUNK``."""
    fs = make_filesystem(fs_type, make_device(device, capacity=256 * MIB))
    probes = []
    probe = fs.page_cache.probe

    def recorded(ino, first, last):
        runs = probe(ino, first, last)
        probes.append(runs)
        return runs

    fs.page_cache.probe = recorded
    rng = random.Random(f"partial-{fs_type}-{device}")
    for step, name in enumerate(_partial_residency_reads(fs, rng)):
        assert _tracer_sum(fs.tracer) == _traffic(fs.device.stats), (step, name)
    assert fs.tracer.tag("reader").read_commands > 0
    assert any(len(runs) > 1 for runs in probes)
    assert any(run.start < CHUNK < run.stop for runs in probes for run in runs)
