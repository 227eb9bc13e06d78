"""Reconstruction layer: placement determinism, repairs, fingerprints."""

import pytest

from repro.constants import BLOCK_SIZE, GIB, KIB, MIB
from repro.device import make_device
from repro.errors import InvalidArgument
from repro.fs import make_filesystem
from repro.replay import (
    PlacementPolicy,
    ReplayConfig,
    Reconstructor,
    TraceProfile,
    generate_ops,
    generate_trace,
    run_replay,
    validate,
)
from repro.replay import compare as replay_compare
from repro.types import IoOp


@pytest.fixture
def fs():
    return make_filesystem("ext4", make_device("flash", capacity=1 * GIB))


# ----------------------------------------------------------------------
# placement policy
# ----------------------------------------------------------------------

def test_placement_deterministic_across_instances():
    a = PlacementPolicy(seed=7)
    b = PlacementPolicy(seed=7)
    assert [a.path_for(i) for i in range(50)] == [b.path_for(i) for i in range(50)]


def test_placement_seed_changes_layout():
    a = PlacementPolicy(seed=0)
    b = PlacementPolicy(seed=1)
    paths_a = [a.path_for(i) for i in range(50)]
    paths_b = [b.path_for(i) for i in range(50)]
    assert paths_a != paths_b


def test_placement_explicit_mapping_wins():
    policy = PlacementPolicy(seed=0, mapping={3: "/pinned/file"})
    assert policy.path_for(3) == "/pinned/file"
    assert policy.path_for(4).startswith("/replay/")


def test_placement_rejects_bad_knobs():
    with pytest.raises(InvalidArgument):
        PlacementPolicy(fanout=0)
    with pytest.raises(InvalidArgument):
        PlacementPolicy(file_cap=100)


# ----------------------------------------------------------------------
# record repairs (counted, never silent)
# ----------------------------------------------------------------------

def test_offset_past_cap_wraps_and_counts(fs):
    rec = Reconstructor(fs, PlacementPolicy(file_cap=1 * MIB))
    rec.run([IoOp("write", 0, 5 * MIB + 4096, 8192, 0.0)])
    assert rec.stats.clamped == 1
    assert rec.stats.ops_write == 1
    # the shaped write landed inside the cap
    path = rec.policy.path_for(0)
    assert fs.inode_of(path).size <= 1 * MIB


def test_oversized_request_clamped(fs):
    rec = Reconstructor(fs, PlacementPolicy(file_cap=1 * MIB))
    rec.run([IoOp("write", 0, 0, 4 * MIB, 0.0)])
    assert rec.stats.clamped >= 1
    assert rec.stats.bytes_written == 1 * MIB


def test_unaligned_o_direct_realigned(fs):
    rec = Reconstructor(fs)
    rec.run([IoOp("write", 0, 100, 5000, 0.0, True)])
    assert rec.stats.realigned == 1
    size = fs.inode_of(rec.policy.path_for(0)).size
    assert size % BLOCK_SIZE == 0


def test_unaligned_buffered_not_realigned(fs):
    rec = Reconstructor(fs)
    rec.run([IoOp("write", 0, 100, 5000, 0.0, False)])
    assert rec.stats.realigned == 0


def test_read_beyond_eof_backfills(fs):
    rec = Reconstructor(fs)
    rec.run([IoOp("read", 0, 64 * KIB, 16 * KIB, 0.0)])
    assert rec.stats.backfill_bytes == 80 * KIB
    assert rec.stats.ops_read == 1
    assert fs.inode_of(rec.policy.path_for(0)).size == 80 * KIB


def test_zero_length_dropped(fs):
    rec = Reconstructor(fs)
    rec.run([IoOp("write", 0, 0, 0, 0.0)])
    assert rec.stats.dropped == 1
    assert rec.stats.ops == 0


def test_no_space_counted_not_raised():
    # 128 MiB device minus the 64 MiB metadata region = 64 MiB usable
    small = make_filesystem("ext4", make_device("flash", capacity=128 * MIB))
    rec = Reconstructor(small, PlacementPolicy(file_cap=4 * MIB))
    ops = [IoOp("write", i, 0, 4 * MIB, 0.0) for i in range(64)]
    rec.run(ops)  # must not raise
    assert rec.stats.no_space > 0
    assert rec.stats.ops_write + rec.stats.no_space == 64


def test_files_created_once_per_entity(fs):
    rec = Reconstructor(fs)
    rec.run([
        IoOp("write", 0, 0, 4096, 0.0),
        IoOp("write", 0, 4096, 4096, 0.0),
        IoOp("write", 1, 0, 4096, 0.0),
    ])
    assert rec.stats.files_created == 2


def test_fsync_routes_through(fs):
    rec = Reconstructor(fs)
    rec.run([IoOp("write", 0, 0, 4096, 0.0), IoOp("fsync", 0, 0, 0, 0.0)])
    assert rec.stats.ops_fsync == 1


# ----------------------------------------------------------------------
# pacing
# ----------------------------------------------------------------------

def test_trace_pacing_honours_gaps(fs):
    ops = [
        IoOp("write", 0, 0, 4096, 10.0),
        IoOp("write", 0, 4096, 4096, 12.5),
    ]
    afap = Reconstructor(make_filesystem("ext4", make_device("flash")), pacing="afap")
    afap_finish = afap.run(iter(ops), now=0.0)
    traced = Reconstructor(fs, pacing="trace")
    traced_finish = traced.run(iter(ops), now=0.0)
    # trace pacing preserves the 2.5 s inter-arrival gap; afap does not
    assert traced_finish >= 2.5
    assert afap_finish < 2.5


def test_unknown_pacing_rejected(fs):
    with pytest.raises(InvalidArgument):
        Reconstructor(fs, pacing="warp")
    with pytest.raises(InvalidArgument):
        ReplayConfig(pacing="warp")


# ----------------------------------------------------------------------
# generator + full pipeline determinism
# ----------------------------------------------------------------------

def test_generator_deterministic_and_bounded():
    profile = TraceProfile(ops=500, seed=3)
    a, b = list(generate_ops(profile)), list(generate_ops(profile))
    assert a == b
    assert len(a) >= 500  # fsync records ride along
    for op in a:
        assert op.offset + op.size <= profile.file_bytes
    assert all(x.time <= y.time for x, y in zip(a, a[1:]))


def test_generator_validates():
    with pytest.raises(InvalidArgument):
        TraceProfile(ops=-1)
    with pytest.raises(InvalidArgument):
        TraceProfile(files=0)


def test_run_replay_fingerprint_reproducible(tmp_path):
    trace = str(tmp_path / "t.bin")
    generate_trace(trace, TraceProfile(ops=2000, seed=5))
    config = ReplayConfig(seed=9)
    doc_a = run_replay(trace, config).to_dict("a")
    doc_b = run_replay(trace, config).to_dict("b")
    validate(doc_a)
    # label excluded from identity: same run, same fingerprint
    assert doc_a["fingerprint"] == doc_b["fingerprint"]
    assert doc_a["reconstruction"] == doc_b["reconstruction"]
    assert doc_a["figures"] == doc_b["figures"]


def test_run_replay_seed_changes_placement(tmp_path):
    trace = str(tmp_path / "t.bin")
    generate_trace(trace, TraceProfile(ops=2000, seed=5))
    doc_a = run_replay(trace, ReplayConfig(seed=0)).to_dict()
    doc_b = run_replay(trace, ReplayConfig(seed=1)).to_dict()
    assert doc_a["fingerprint"] != doc_b["fingerprint"]
    # but the parsed workload is the same trace either way
    assert doc_a["parse"] == doc_b["parse"]


def test_replay_attribution_sums(tmp_path):
    trace = str(tmp_path / "t.bin")
    generate_trace(trace, TraceProfile(ops=1000, seed=2))
    document = run_replay(trace, ReplayConfig()).to_dict()
    assert document["attribution"]["ok"] is True


@pytest.mark.parametrize("profile", [
    dict(read_fraction=0.9, direct_fraction=0.5, sequential_fraction=0.6),
    dict(read_fraction=0.1, direct_fraction=0.0, sequential_fraction=0.3,
         fsync_every=16),
], ids=["read-heavy", "write-heavy"])
def test_attribution_plane_document_matches_full_plane(tmp_path, monkeypatch, profile):
    """The attribution-only plane skips per-command records; the REPLAY
    document (attribution and split fan-out floats included) must equal
    the one a full plane produces."""
    from repro.obs import hooks
    from repro.replay import report

    trace = str(tmp_path / "t.bin")
    generate_trace(trace, TraceProfile(ops=3000, seed=11, files=16, **profile))
    config = ReplayConfig(seed=4)
    runs = []
    for plane in (hooks.AttributionInstrumentation, hooks.Instrumentation):
        armed = []
        monkeypatch.setattr(report, "AttributionInstrumentation",
                            lambda plane=plane: armed.append(plane()) or armed[0])
        document = run_replay(trace, config).to_dict()
        runs.append((armed[0], document))
    (lean_obs, lean_doc), (full_obs, full_doc) = runs
    assert type(full_obs) is hooks.Instrumentation
    # the full plane really recorded what the lean one skipped
    assert any(name.startswith("device.") for name in full_obs.registry.to_dict())
    assert not any(name.startswith("device.") for name in lean_obs.registry.to_dict())
    assert full_obs.spans.events and not lean_obs.spans.events
    assert lean_doc["split_fanout"]["count"] > 0
    assert lean_doc == full_doc


def test_replay_compare_flags_regression(tmp_path):
    trace = str(tmp_path / "t.bin")
    generate_trace(trace, TraceProfile(ops=1000, seed=2))
    base = run_replay(trace, ReplayConfig()).to_dict("base")
    cand = {k: (dict(v) if isinstance(v, dict) else v) for k, v in base.items()}
    cand["label"] = "cand"
    cand["figures"]["ops_per_vsec"] = base["figures"]["ops_per_vsec"] * 0.5
    comparison = replay_compare(base, cand, threshold=0.10)
    assert not comparison.ok
    assert any(f.metric == "ops_per_vsec" for f in comparison.regressions)
    same = replay_compare(base, base, threshold=0.10)
    assert same.ok
