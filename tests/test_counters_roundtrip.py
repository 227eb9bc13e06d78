"""snapshot()/delta() round-trips for the legacy per-layer counters.

TrafficCounter (block tracer) and DeviceStats (device) predate repro.obs;
experiments still window them around phases, so their copy semantics must
hold: snapshots are independent copies, and delta(snapshot) isolates
exactly the traffic in between.
"""

from repro.block.request import IoCommand, IoOp
from repro.block.tracer import BlockTracer, TrafficCounter
from repro.device.base import DeviceStats


def _cmd(op, length, tag="t"):
    return IoCommand(op, 0, length, tag)


def _account(counter, command):
    """The per-command reference: one command's bytes and count."""
    counter.add(command.op, command.length)


def _summed(tracer):
    """The tracer's traffic summed over its tags."""
    total = TrafficCounter()
    for counter in tracer.by_tag.values():
        for op in IoOp:
            name = op.value
            total.add(op, getattr(counter, f"{name}_bytes"),
                      getattr(counter, f"{name}_commands"))
    return total


class TestTrafficCounter:
    def test_snapshot_is_independent_copy(self):
        counter = TrafficCounter()
        _account(counter, _cmd(IoOp.READ, 4096))
        snap = counter.snapshot()
        _account(counter, _cmd(IoOp.WRITE, 8192))
        assert snap.read_bytes == 4096
        assert snap.write_bytes == 0
        assert counter.write_bytes == 8192

    def test_delta_isolates_window(self):
        counter = TrafficCounter()
        _account(counter, _cmd(IoOp.READ, 4096))
        _account(counter, _cmd(IoOp.DISCARD, 1024))
        snap = counter.snapshot()
        _account(counter, _cmd(IoOp.READ, 4096))
        _account(counter, _cmd(IoOp.WRITE, 512))
        _account(counter, _cmd(IoOp.DISCARD, 2048))
        delta = counter.delta(snap)
        assert delta.read_bytes == 4096 and delta.read_commands == 1
        assert delta.write_bytes == 512 and delta.write_commands == 1
        assert delta.discard_bytes == 2048 and delta.discard_commands == 1
        # snapshot + delta reconstructs the current totals
        assert snap.read_bytes + delta.read_bytes == counter.read_bytes
        assert snap.discard_commands + delta.discard_commands == counter.discard_commands

    def test_delta_of_snapshot_with_itself_is_zero(self):
        counter = TrafficCounter()
        _account(counter, _cmd(IoOp.WRITE, 4096))
        snap = counter.snapshot()
        zero = snap.delta(snap)
        assert zero.total_bytes == 0
        assert zero.read_commands == zero.write_commands == zero.discard_commands == 0

    def test_tracer_tag_counters_roundtrip(self):
        tracer = BlockTracer()
        tracer.observe(IoOp.READ, "defrag", [(0, 4096)], 4096)
        before = tracer.tag("defrag").snapshot()
        tracer.observe(IoOp.WRITE, "defrag", [(0, 8192)], 8192)
        tracer.observe(IoOp.WRITE, "other", [(0, 100)], 100)
        delta = tracer.tag("defrag").delta(before)
        assert delta.read_bytes == 0
        assert delta.write_bytes == 8192
        assert _summed(tracer).write_bytes == 8292


class TestDeviceStats:
    def test_snapshot_is_independent_copy(self):
        stats = DeviceStats()
        _account(stats, _cmd(IoOp.READ, 4096))
        stats.busy_time += 0.5
        snap = stats.snapshot()
        _account(stats, _cmd(IoOp.WRITE, 8192))
        stats.busy_time += 0.25
        assert snap.read_bytes == 4096 and snap.write_bytes == 0
        assert snap.busy_time == 0.5
        assert stats.busy_time == 0.75

    def test_delta_isolates_window(self):
        stats = DeviceStats()
        for _ in range(3):
            _account(stats, _cmd(IoOp.READ, 4096))
        stats.busy_time = 1.0
        snap = stats.snapshot()
        _account(stats, _cmd(IoOp.WRITE, 8192))
        _account(stats, _cmd(IoOp.DISCARD, 512))
        stats.busy_time = 1.75
        delta = stats.delta(snap)
        assert delta.read_bytes == 0 and delta.read_commands == 0
        assert delta.write_bytes == 8192 and delta.write_commands == 1
        assert delta.discard_bytes == 512 and delta.discard_commands == 1
        assert delta.busy_time == 0.75
        assert delta.total_commands == 2
        assert snap.total_commands + delta.total_commands == stats.total_commands

    def test_snapshot_and_delta_keep_the_type(self):
        stats = DeviceStats(read_bytes=10, busy_time=0.5)
        assert type(stats.snapshot()) is DeviceStats
        assert type(stats.delta(DeviceStats())) is DeviceStats
        assert isinstance(stats, TrafficCounter)


def test_add_counts_a_whole_batch_like_per_command_account():
    commands = [_cmd(IoOp.WRITE, 4096 * (i + 1)) for i in range(5)]
    for cls in (TrafficCounter, DeviceStats):
        each, batch = cls(), cls()
        for command in commands:
            _account(each, command)
        batch.add(IoOp.WRITE, sum(c.length for c in commands), len(commands))
        batch.add(IoOp.DISCARD, 0, 0)
        assert each == batch


def test_tracer_runs_match_per_command_accounting():
    """The tracer counts a batch (one op, one tag) at once; the summed
    totals, the per-tag counters and their order must match one
    ``_account`` per command, and the log holds one record per command."""
    import random

    rng = random.Random(5)
    plain, logging = BlockTracer(), BlockTracer(keep_log=True)
    total, by_tag, log = TrafficCounter(), {}, []
    for _ in range(300):
        op, tag = rng.choice(list(IoOp)), rng.choice(("a", "b", "gc"))
        batch = [_cmd(op, rng.choice((512, 4096, 65536)), tag=tag)
                 for _ in range(rng.choice((1, 2, 5, 12)))]
        if rng.random() < 0.5:  # repeated commands too
            batch = [batch[0]] * len(batch)
        ranges = [(command.offset, command.length) for command in batch]
        nbytes = sum(length for _, length in ranges)
        plain.observe(op, tag, ranges, nbytes)
        logging.observe(op, tag, ranges, nbytes)
        for command in batch:
            _account(total, command)
            _account(by_tag.setdefault(command.tag, TrafficCounter()), command)
        log.extend(batch)
    plain.observe(IoOp.READ, "a", [], 0)
    for tracer in (plain, logging):
        assert _summed(tracer) == total
        assert list(tracer.by_tag.items()) == list(by_tag.items())
    assert plain.log == [] and logging.log == log
