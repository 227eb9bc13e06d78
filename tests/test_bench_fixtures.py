"""The per-run fixture cache: a cloned fixture behaves exactly like a rebuild.

The Figure 8/9/12 and phase-ablation experiments build their fragmented
file once per run and deep-copy it into every cell; Figure 8/9 also
defragments it once per pattern-free variant, and Figure 12 traces it
once per distribution.  These tests drive a clone and a fresh build (or
the defragmented original) through the same operations on every
filesystem and device model and require identical results, down to the
FTL's page placement; check that the stored fixture never sees a
clone's writes; and count when the cache builds, defragments and traces
once per run and when it must do so for every cell instead.
"""

import pytest

from repro.bench.experiments import fig12_hotness, synthetic_defrag
from repro.bench.harness import FixtureCache, fresh_fs
from repro.constants import KIB, MIB
from repro.core import FragPicker
from repro.errors import InvalidArgument
from repro.faults import FaultPlan, FaultPlane
from repro.faults import hooks as fault_hooks
from repro.obs import hooks as obs_hooks
from repro.obs.hooks import Instrumentation
from repro.workloads.synthetic import make_paper_synthetic_file

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
        call = fs.read if op == "read" else fs.write
        for offset in range(0, SIZE - 128 * KIB + 1, stride):
            result = call(handle, offset, 128 * KIB, now=now)
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
        "tracer": {tag: c.snapshot() for tag, c in fs.tracer.by_tag.items()},
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

    # a defragmented volume, stored as its own fixture, clones exactly too
    for variant in ("conv", "fragpicker_b"):
        stored = []

        def build_defragmented():
            fs, start = cache.get(key, build)
            report = synthetic_defrag._defragment(fs, variant, "/target", start)
            stored.append(fs)
            return fs, report.finished_at, report

        clone, now, report = cache.get(key + (variant,), build_defragmented)
        original, = stored
        assert report.write_bytes > 0
        assert _state(clone) == _state(original)
        assert _drive(clone, now) == _drive(original, now)
        assert _state(clone) == _state(original)


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


def _armed(plane):
    if plane == "obs":
        return obs_hooks.use(Instrumentation())
    return fault_hooks.use(FaultPlane(FaultPlan(), active=True))


def test_unarmed_run_builds_once(builds):
    synthetic_defrag.run("ext4", "optane", **GRID)
    assert len(builds) == 1


@pytest.mark.parametrize("plane", ["obs", "faults"])
def test_armed_run_builds_every_cell(builds, plane):
    with _armed(plane):
        result = synthetic_defrag.run("ext4", "optane", **GRID)
    cells = sum(len(per_pattern) for per_pattern in result.cells.values())
    assert cells == 4
    assert len(builds) == cells


@pytest.fixture
def tools(monkeypatch):
    """The variant of every defragmentation ``synthetic_defrag`` runs."""
    calls = []

    def counted(variant, factory):
        def make(*args, **kwargs):
            tool = factory(*args, **kwargs)
            real = tool.defragment

            def defragment(*a, **k):
                calls.append(variant)
                return real(*a, **k)

            tool.defragment = defragment
            return tool
        return make

    monkeypatch.setattr(synthetic_defrag, "make_conventional",
                        counted("conv", synthetic_defrag.make_conventional))
    monkeypatch.setattr(synthetic_defrag, "btrfs_defragment",
                        counted("conv_t", synthetic_defrag.btrfs_defragment))
    real_bypass, real_defragment = FragPicker.defragment_bypass, FragPicker.defragment

    def bypass(self, *args, **kwargs):
        calls.append("fragpicker_b")
        return real_bypass(self, *args, **kwargs)

    def defragment(self, records=None, *args, **kwargs):
        if records is not None:  # the bypass hands over plans instead
            calls.append("fragpicker")
        return real_defragment(self, records, *args, **kwargs)

    monkeypatch.setattr(FragPicker, "defragment_bypass", bypass)
    monkeypatch.setattr(FragPicker, "defragment", defragment)
    return calls


#: every variant, Conv.-T included, over two patterns
FULL_GRID = {"file_size": 1 * MIB, "variants": synthetic_defrag.VARIANTS,
             "patterns": ("seq_read", "stride_update")}


def test_unarmed_run_defragments_each_pattern_free_variant_once(builds, tools):
    result = synthetic_defrag.run("btrfs", "optane", **FULL_GRID)
    patterns = len(FULL_GRID["patterns"])
    assert len(builds) == 1
    assert sorted(tools) == sorted(
        list(synthetic_defrag.PATTERN_FREE) + ["fragpicker"] * patterns
    )
    # every pattern's cell carries its variant's one report
    for variant in synthetic_defrag.PATTERN_FREE:
        cells = list(result.cells[variant].values())
        assert len(cells) == patterns and cells[0].defrag_write_mb > 0
        assert all(c.defrag_write_mb == cells[0].defrag_write_mb for c in cells)


@pytest.mark.parametrize("plane", ["obs", "faults"])
def test_armed_run_defragments_every_cell(builds, tools, plane):
    with _armed(plane):
        result = synthetic_defrag.run("btrfs", "optane", **FULL_GRID)
    cells = sum(len(per_pattern) for per_pattern in result.cells.values())
    assert len(builds) == cells == 10
    patterns = len(FULL_GRID["patterns"])
    assert sorted(tools) == sorted(
        [v for v in synthetic_defrag.VARIANTS if v != "original"] * patterns
    )


#: a small Figure 12 sweep: two distributions x two criteria
SWEEP = {"file_size": 1 * MIB, "ops": 40, "criteria": [0.5, 1.0]}


@pytest.fixture
def traces(monkeypatch):
    """One entry per syscall monitor ``fig12_hotness`` opens."""
    calls = []
    real = FragPicker.monitor

    def monitor(self, *args, **kwargs):
        calls.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(FragPicker, "monitor", monitor)
    return calls


def test_unarmed_fig12_traces_once_per_distribution(traces):
    result = fig12_hotness.run(**SWEEP)
    assert len(traces) == len(result.sweeps) == 2


@pytest.mark.parametrize("plane", ["obs", "faults"])
def test_armed_fig12_traces_every_point(traces, plane):
    with _armed(plane):
        result = fig12_hotness.run(**SWEEP)
    points = sum(len(sweep) for sweep in result.sweeps.values())
    assert len(traces) == points == 4


def test_storing_an_observed_fixture_raises():
    build = _builder("ext4", "optane")

    def with_monitor():
        fs, now = build()
        fs.attach_monitor(lambda event: None)
        return fs, now

    def with_listener():
        fs, now = build()
        fs.device.add_listener(lambda op, ranges, start, finish: None)
        return fs, now

    with pytest.raises(InvalidArgument, match="monitors"):
        FixtureCache().get("monitored", with_monitor)
    with pytest.raises(InvalidArgument, match="listeners"):
        FixtureCache().get("listened", with_listener)
