"""The per-run fixture cache: a cloned fixture behaves exactly like a rebuild.

The Figure 8/9/12 and phase-ablation experiments build their fragmented
file once per run and deep-copy it into every cell.  These tests drive a
clone and a fresh build through the same operations on every filesystem
and device model and require identical results, down to the FTL's page
placement; check that the stored fixture never sees a clone's writes;
and guard when the cache must build afresh instead of cloning.
"""

import pytest

from repro.bench.experiments import synthetic_defrag
from repro.bench.harness import FixtureCache, fresh_fs
from repro.constants import KIB, MIB
from repro.core import FragPicker
from repro.errors import InvalidArgument
from repro.faults import FaultPlan, FaultPlane
from repro.faults import hooks as fault_hooks
from repro.obs import hooks as obs_hooks
from repro.obs.hooks import Instrumentation
from repro.workloads.synthetic import make_paper_synthetic_file, pattern_ops

FS_TYPES = ("ext4", "f2fs", "btrfs")
DEVICES = ("optane", "flash", "microsd", "hdd")
#: four 32 x 4 KiB + 1 x 128 KiB layout units
SIZE = 1 * MIB
#: (op, stride): sequential and stride reads and updates, 128 KiB requests
PATTERNS = (("read", 128 * KIB), ("read", 288 * KIB),
            ("write", 128 * KIB), ("write", 288 * KIB))


def _builder(fs_type, device_kind):
    def build():
        fs, _ = fresh_fs(fs_type, device_kind)
        return fs, make_paper_synthetic_file(fs, "/target", SIZE)
    return build


def _drive(fs, now):
    """Every pattern's syscall results, then one FragPicker-B report."""
    handle = fs.open("/target", o_direct=True, app="bench")
    results = []
    for op, stride in PATTERNS:
        for record in pattern_ops(op, SIZE, stride, 128 * KIB):
            call = fs.read if record.op == "read" else fs.write
            result = call(handle, record.offset, record.size, now=now)
            results.append(result)
            now = result.finish_time
    results.append(FragPicker(fs).defragment_bypass(["/target"], now=now))
    return results


def _state(fs):
    """Everything a later cell could observe of the stack."""
    ftl = getattr(fs.device, "ftl", None)
    return {
        "extents": {path: fs.inode_of(path).extent_map.extents()
                    for path in sorted(fs.paths)},
        "free_runs": fs.free_space.runs(),
        "device_stats": fs.device.stats.snapshot(),
        "tracer": (fs.tracer.total.snapshot(),
                   {tag: c.snapshot() for tag, c in fs.tracer.by_tag.items()}),
        "ftl": None if ftl is None else {
            lpn: (block.channel, slot) for lpn, (block, slot) in ftl.mapping.items()
        },
    }


# FragPicker warns that it ignores seek distance on the HDD model
@pytest.mark.filterwarnings("ignore:FragPicker ignores fragment distance")
@pytest.mark.parametrize("device_kind", DEVICES)
@pytest.mark.parametrize("fs_type", FS_TYPES)
def test_clone_behaves_like_a_rebuild(fs_type, device_kind):
    cache = FixtureCache()
    key = (fs_type, device_kind, SIZE)
    build = _builder(fs_type, device_kind)
    clone, now = cache.get(key, build)
    fresh, fresh_now = build()
    assert now == fresh_now
    assert _state(clone) == _state(fresh)
    # the null planes survive the copy as the shared singletons
    assert clone.obs is obs_hooks.NULL and clone.device.obs is obs_hooks.NULL
    assert clone.faults is fault_hooks.NULL and clone.device.faults is fault_hooks.NULL

    assert _drive(clone, now) == _drive(fresh, fresh_now)
    assert _state(clone) == _state(fresh)

    # the stored fixture never saw the clone's writes or its migration
    again, again_now = cache.get(key, build)
    assert again is not clone
    untouched, _ = build()
    assert again_now == now
    assert _state(again) == _state(untouched)


# ----------------------------------------------------------------------
# when the cache clones and when it builds
# ----------------------------------------------------------------------

GRID = {"file_size": 1 * MIB, "variants": ("original", "fragpicker_b"),
        "patterns": ("seq_read", "stride_read")}


@pytest.fixture
def builds(monkeypatch):
    """Paths of every synthetic file ``synthetic_defrag`` builds."""
    calls = []
    real = synthetic_defrag.make_paper_synthetic_file

    def counted(fs, path, *args, **kwargs):
        calls.append(path)
        return real(fs, path, *args, **kwargs)

    monkeypatch.setattr(synthetic_defrag, "make_paper_synthetic_file", counted)
    return calls


def test_unarmed_run_builds_once(builds):
    synthetic_defrag.run("ext4", "optane", **GRID)
    assert len(builds) == 1


@pytest.mark.parametrize("plane", ["obs", "faults"])
def test_armed_run_builds_every_cell(builds, plane):
    if plane == "obs":
        context = obs_hooks.use(Instrumentation())
    else:
        context = fault_hooks.use(FaultPlane(FaultPlan(), active=True))
    with context:
        result = synthetic_defrag.run("ext4", "optane", **GRID)
    cells = sum(len(per_pattern) for per_pattern in result.cells.values())
    assert cells == 4
    assert len(builds) == cells


def test_storing_an_observed_fixture_raises():
    build = _builder("ext4", "optane")

    def with_monitor():
        fs, now = build()
        fs.attach_monitor(lambda event: None)
        return fs, now

    def with_listener():
        fs, now = build()
        fs.device.add_listener(lambda commands, start, finish: None)
        return fs, now

    with pytest.raises(InvalidArgument, match="monitors"):
        FixtureCache().get("monitored", with_monitor)
    with pytest.raises(InvalidArgument, match="listeners"):
        FixtureCache().get("listened", with_listener)
