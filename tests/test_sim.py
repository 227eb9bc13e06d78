"""The co-running engine."""

from repro.constants import GIB, KIB
from repro.device import make_device
from repro.fs import make_filesystem
from repro.sim import ActorContext, run_concurrently
from repro.bench.harness import corun_until_background_done


def test_engine_orders_by_local_time():
    order = []

    def slow(ctx):
        for i in range(3):
            ctx.now += 10.0
            order.append(("slow", ctx.now))
            yield

    def fast(ctx):
        for i in range(3):
            ctx.now += 1.0
            order.append(("fast", ctx.now))
            yield

    run_concurrently({"slow": slow, "fast": fast})
    # all fast steps (t=1,2,3) happen before slow's second step (t=20)
    assert order[:4] == [("slow", 10.0), ("fast", 1.0), ("fast", 2.0), ("fast", 3.0)]


def test_engine_start_times():
    seen = []

    def actor(ctx):
        seen.append(ctx.now)
        ctx.now += 1
        yield

    contexts = run_concurrently({"a": actor, "b": actor}, start_times={"b": 100.0})
    assert contexts["b"].finished_at >= 100.0
    assert 100.0 in seen


def test_engine_until_cutoff():
    def endless(ctx):
        while True:
            ctx.now += 1.0
            yield

    contexts = run_concurrently({"x": endless}, until=10.0)
    assert contexts["x"].finished_at >= 10.0
    assert contexts["x"].now <= 12.0


def test_engine_timeline_records():
    def worker(ctx):
        for _ in range(5):
            ctx.now += 1.0
            ctx.record(2.0)
            yield

    contexts = run_concurrently({"w": worker})
    assert contexts["w"].timeline.total() == 10.0


def test_corun_until_background_done():
    def fg(ctx):
        while True:
            ctx.now += 1.0
            ctx.record()
            yield

    def bg(ctx):
        for _ in range(5):
            ctx.now += 2.0
            yield

    fg_ctx, bg_ctx = corun_until_background_done(fg, bg)
    assert bg_ctx.now == 10.0
    # the foreground stopped shortly after the background finished
    assert 9.0 <= fg_ctx.now <= 12.0


def test_engine_shares_device_fcfs(fs):
    """Two actors on one filesystem contend for the device."""
    handle = fs.open("/f", o_direct=True, create=True)
    setup_end = fs.write(handle, 0, 1024 * KIB).finish_time

    def reader(name):
        def _run(ctx):
            h = fs.open("/f", o_direct=True, app=name)
            for i in range(50):
                ctx.now = fs.read(h, (i % 8) * 128 * KIB, 128 * KIB, now=ctx.now).finish_time
                ctx.record()
                yield
        return _run

    solo = run_concurrently({"a": reader("a")}, start=setup_end)
    solo_elapsed = solo["a"].now - setup_end
    pair = run_concurrently({"a": reader("a"), "b": reader("b")}, start=setup_end)
    pair_elapsed = max(ctx.now for ctx in pair.values()) - setup_end
    assert pair_elapsed > 1.3 * solo_elapsed  # contention is real
