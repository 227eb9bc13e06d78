"""blktrace-equivalent accounting."""

from repro.block import BlockTracer, IoCommand, IoOp, TrafficCounter


def test_per_tag_accounting():
    tracer = BlockTracer()
    tracer.observe(IoOp.READ, "a", [(0, 100)], 100)
    tracer.observe(IoOp.WRITE, "a", [(0, 200)], 200)
    tracer.observe(IoOp.READ, "b", [(0, 300)], 300)
    tracer.observe(IoOp.DISCARD, "b", [(0, 400)], 400)
    assert tracer.tag("a").read_bytes == 100
    assert tracer.tag("a").write_bytes == 200
    assert tracer.tag("b").read_bytes == 300
    assert tracer.tag("b").discard_bytes == 400
    assert sum(c.read_bytes for c in tracer.by_tag.values()) == 400
    assert tracer.tag("missing").total_bytes == 0


def test_command_counts():
    tracer = BlockTracer()
    tracer.observe(IoOp.READ, "x", [(0, 1)] * 5, 5)
    assert tracer.tag("x").read_commands == 5


def test_snapshot_delta():
    counter = TrafficCounter()
    counter.add(IoOp.WRITE, 100)
    snap = counter.snapshot()
    counter.add(IoOp.WRITE, 50)
    delta = counter.delta(snap)
    assert delta.write_bytes == 50
    assert snap.write_bytes == 100  # snapshot unaffected


def test_keep_log():
    tracer = BlockTracer(keep_log=True)
    tracer.observe(IoOp.READ, "", [(0, 1)], 1)
    assert len(tracer.log) == 1
    tracer.observe(IoOp.WRITE, "t", [(8, 2), (64, 3)], 5)
    assert tracer.log[1:] == [
        IoCommand(IoOp.WRITE, 8, 2, "t"), IoCommand(IoOp.WRITE, 64, 3, "t"),
    ]


def test_observe_emits_into_obs_event_ring():
    """With obs enabled, the tracer mirrors commands into the shared ring."""
    from repro.obs import hooks
    from repro.obs.hooks import Instrumentation

    try:
        with hooks.use(Instrumentation()) as obs:
            tracer = BlockTracer()
            tracer.observe(IoOp.READ, "a", [(4096, 512)], 512, now=1.5)
            tracer.observe(IoOp.WRITE, "b", [(8192, 1024)], 1024, now=1.5)
            events = [e for e in obs.spans.events if e.name == "block.cmd"]
        assert len(events) == 2
        read, write = events
        assert read.track == "block" and read.time == 1.5
        assert read.attrs == {"op": "read", "offset": 4096, "length": 512, "tag": "a"}
        assert write.attrs["op"] == "write" and write.attrs["tag"] == "b"
        # the counter side is unaffected by the mirroring
        assert tracer.tag("a").read_bytes == 512
    finally:
        hooks.disable()
