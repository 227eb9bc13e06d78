"""Causal provenance: pid minting, layer threading, forest reconstruction."""

import pytest

from repro.constants import BLOCK_SIZE, MIB
from repro.device import make_device
from repro.fs import make_filesystem
from repro.obs import hooks
from repro.obs.hooks import Instrumentation
from repro.obs.provenance import (
    COMMAND_EVENT,
    SUBMIT_EVENT,
    SYSCALL_EVENT,
    ProvenanceRecorder,
    build_forest,
)
from repro.obs.spans import SpanRecorder


@pytest.fixture(autouse=True)
def _restore_global_instrumentation():
    yield
    hooks.disable()


def _armed_fs(device_kind="optane", **obs_kwargs):
    obs = Instrumentation(provenance=True, **obs_kwargs)
    hooks.install(obs)
    device = make_device(device_kind, capacity=64 * MIB)
    fs = make_filesystem("ext4", device, metadata_region=4 * MIB)
    return obs, fs


# -- recorder semantics ------------------------------------------------


def test_mint_is_sequential_and_suspendable():
    rec = ProvenanceRecorder(SpanRecorder())
    assert rec.mint() == 1
    assert rec.mint() == 2
    rec.suspend()
    assert rec.mint() == 0  # 0 = untracked
    rec.resume()
    assert rec.mint() == 3


def test_edges_land_in_the_event_ring_on_dedicated_tracks():
    spans = SpanRecorder()
    rec = ProvenanceRecorder(spans)
    pid = rec.mint()
    rec.syscall(pid, "read", app="a", path="/f", ino=1, offset=0,
                size=4096, start=0.0, end=1.0, requests=2)
    rec.submit(pid, 2, 0.0, 0.1, 0.2)
    rec.command(pid, "flash", "channel", "read", 0, 4096,
                0.2, 0.3, 0.9, units=2, penalty=0.0)
    tracks = {e.track for e in spans.events}
    assert tracks == {"prov.fs", "prov.block", "prov.device"}
    names = {e.name for e in spans.events}
    assert names == {SYSCALL_EVENT, SUBMIT_EVENT, COMMAND_EVENT}


# -- end-to-end threading through the stack ----------------------------


def test_o_direct_read_reconstructs_a_full_tree():
    obs, fs = _armed_fs()
    handle = fs.open("/f", o_direct=True, app="db", create=True)
    now = fs.write(handle, 0, 8 * BLOCK_SIZE, now=0.0).finish_time
    result = fs.read(handle, 0, 8 * BLOCK_SIZE, now=now)
    forest = build_forest(obs.spans)
    crossing = forest.layer_crossing()
    assert len(crossing) >= 2  # the write and the read both hit the device
    read_tree = next(t for t in crossing if t.op == "read")
    assert read_tree.app == "db" and read_tree.path == "/f"
    assert read_tree.complete
    assert read_tree.submits and read_tree.commands
    # timing invariants: issue <= pickup <= drain, all inside the syscall
    for cmd in read_tree.commands:
        assert cmd.issue <= cmd.begin <= cmd.end
        assert read_tree.start <= cmd.end <= read_tree.end
    assert read_tree.latency == pytest.approx(result.latency)
    assert read_tree.fanout == len(read_tree.commands)
    assert read_tree.tail is not None
    # optane model labels its parallel units as banks
    assert read_tree.tail.unit == "bank"


def test_fsync_tree_owns_writeback_and_journal_commands():
    obs, fs = _armed_fs()
    handle = fs.open("/f", app="db", create=True)
    now = fs.write(handle, 0, 4 * BLOCK_SIZE, now=0.0).finish_time
    fs.fsync(handle, now=now)
    forest = build_forest(obs.spans)
    fsync_tree = next(
        t for t in forest.complete_trees() if t.op == "fsync"
    )
    # dirty-page flush + the metadata journal commit, all one cause
    assert fsync_tree.requests >= 2
    assert len(fsync_tree.commands) == fsync_tree.requests
    assert {c.op for c in fsync_tree.commands} == {"write"}


def test_disarmed_obs_mints_nothing_and_commands_stay_pid_zero():
    obs = Instrumentation()  # enabled but provenance NOT armed
    hooks.install(obs)
    device = make_device("flash", capacity=64 * MIB)
    fs = make_filesystem("ext4", device, metadata_region=4 * MIB)
    handle = fs.open("/f", o_direct=True, app="db", create=True)
    fs.write(handle, 0, 4 * BLOCK_SIZE, now=0.0)
    assert not fs._tracing and not fs.scheduler._tracing
    assert all(e.name not in (SYSCALL_EVENT, SUBMIT_EVENT, COMMAND_EVENT)
               for e in obs.spans.events)
    block_cmds = [e for e in obs.spans.events if e.name == "block.cmd"]
    assert block_cmds and all(e.attrs["pid"] == 0 for e in block_cmds)


def test_suspended_setup_traffic_is_untracked():
    obs, fs = _armed_fs()
    handle = fs.open("/f", o_direct=True, app="setup", create=True)
    obs.provenance.suspend()
    fs.write(handle, 0, 4 * BLOCK_SIZE, now=0.0)
    obs.provenance.resume()
    now = fs.read(handle, 0, 4 * BLOCK_SIZE, now=1.0).finish_time
    assert now > 1.0
    forest = build_forest(obs.spans)
    ops = [t.op for t in forest.complete_trees()]
    assert ops == ["read"]  # the suspended write minted no pid


# -- ring-wrap tolerance -----------------------------------------------


def test_ring_wrap_counts_orphans_and_drops():
    obs, fs = _armed_fs(max_events=32)  # tiny ring: guaranteed wrap
    handle = fs.open("/f", o_direct=True, app="db", create=True)
    now = 0.0
    for i in range(64):
        now = fs.write(handle, i * BLOCK_SIZE, BLOCK_SIZE, now=now).finish_time
    assert obs.spans.dropped_events > 0
    assert obs.registry.counter("obs.events_dropped").value == \
        obs.spans.dropped_events
    forest = build_forest(obs.spans)  # must not crash on partial trees
    assert forest.events_dropped == obs.spans.dropped_events
    summary = forest.summary()
    assert summary["events_dropped"] > 0
    # every surviving complete tree is still internally consistent
    for tree in forest.complete_trees():
        for cmd in tree.commands:
            assert cmd.issue <= cmd.begin <= cmd.end
