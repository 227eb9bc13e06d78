"""BCC-style syscall monitoring."""

from repro.constants import KIB
from repro.trace import SyscallMonitor


def test_records_reads_and_writes(fs):
    handle = fs.open("/f", o_direct=True, create=True, app="db")
    with SyscallMonitor(fs) as monitor:
        now = fs.write(handle, 0, 8 * KIB).finish_time
        fs.read(handle, 4 * KIB, 4 * KIB, now=now)
    assert len(monitor.records) == 2
    write, read = monitor.records
    assert write.op == "write" and write.offset == 0 and write.size == 8 * KIB
    assert read.op == "read" and read.offset == 4 * KIB
    assert read.o_direct and read.app == "db"
    assert read.ino == fs.inode_of("/f").ino


def test_app_filter(fs):
    a = fs.open("/f", o_direct=True, create=True, app="a")
    b = fs.open("/f", o_direct=True, app="b")
    with SyscallMonitor(fs, apps={"a"}) as monitor:
        now = fs.write(a, 0, 4 * KIB).finish_time
        fs.read(b, 0, 4 * KIB, now=now)
    assert len(monitor.records) == 1
    assert monitor.records[0].app == "a"


def test_detached_monitor_sees_nothing(fs):
    handle = fs.open("/f", o_direct=True, create=True)
    monitor = SyscallMonitor(fs)
    monitor.attach()
    fs.write(handle, 0, 4 * KIB)
    monitor.detach()
    fs.write(handle, 4 * KIB, 4 * KIB)
    assert len(monitor.records) == 1


def test_records_are_the_probe_events_the_filters_accept(fs):
    """``records`` keeps the filesystem's own events: a second raw probe
    sees the same stream, and the app and size filters select it."""
    a = fs.open("/f", o_direct=True, create=True, app="a")
    b = fs.open("/f", o_direct=False, app="b")
    empty = fs.open("/empty", create=True, app="a")
    now = fs.write(a, 0, 16 * KIB).finish_time
    raw = []
    fs.attach_monitor(raw.append)
    with SyscallMonitor(fs, apps={"a"}) as monitor:
        now = fs.write(a, 0, 8 * KIB, now=now).finish_time
        now = fs.read(b, 0, 4 * KIB, now=now).finish_time
        now = fs.read(a, 4 * KIB, 8 * KIB, now=now).finish_time
        now = fs.read(empty, 0, 4 * KIB, now=now).finish_time  # EOF: size 0
        fs.read(a, 12 * KIB, 4 * KIB, now=now)
    fs.detach_monitor(raw.append)
    assert len(raw) == 5
    accepted = [event for event in raw if event.app == "a" and event.size > 0]
    assert [(e.op, e.offset, e.size) for e in accepted] == [
        ("write", 0, 8 * KIB), ("read", 4 * KIB, 8 * KIB), ("read", 12 * KIB, 4 * KIB),
    ]
    assert monitor.records == accepted


def test_monitoring_costs_latency(fs):
    """The eBPF probe adds per-syscall overhead (paper: <2%)."""
    handle = fs.open("/f", o_direct=True, create=True)
    now = fs.write(handle, 0, 4 * KIB).finish_time
    bare = fs.read(handle, 0, 4 * KIB, now=now)
    with SyscallMonitor(fs):
        probed = fs.read(handle, 0, 4 * KIB, now=bare.finish_time)
    assert probed.latency > bare.latency


def test_zero_size_ios_ignored(fs):
    empty = fs.open("/empty", create=True)
    with SyscallMonitor(fs) as monitor:
        fs.read(empty, 0, 4 * KIB)  # EOF: size clamps to 0
    assert monitor.records == []


def test_probe_emits_into_obs_event_ring(fs):
    """With obs enabled, probe records mirror into the shared event ring."""
    from repro.obs import hooks
    from repro.obs.hooks import Instrumentation

    try:
        with hooks.use(Instrumentation()) as obs:
            handle = fs.open("/f", o_direct=True, create=True, app="db")
            with SyscallMonitor(fs) as monitor:
                now = fs.write(handle, 0, 8 * KIB).finish_time
                fs.read(handle, 0, 4 * KIB, now=now)
            names = [e.name for e in obs.spans.events if e.name.startswith("syscall.")]
        assert "syscall.write" in names and "syscall.read" in names
        ring = [e for e in obs.spans.events if e.name == "syscall.read"]
        assert ring[0].track == "syscall"
        assert ring[0].attrs["app"] == "db"
        assert ring[0].attrs["ino"] == fs.inode_of("/f").ino
        assert len(monitor.records) == 2  # analysis input is untouched
    finally:
        hooks.disable()
