"""Latency attribution: the sum-to-total invariant and its views."""

import pytest

from repro.bench.harness import ObsWindow, measured_variant
from repro.constants import GIB, KIB, MIB
from repro.core import FragPicker
from repro.device import make_device
from repro.fs import make_filesystem
from repro.obs import analysis, hooks
from repro.obs.hooks import Instrumentation
from repro.workloads.synthetic import make_paper_synthetic_file, sequential_read


@pytest.fixture(autouse=True)
def _restore_global_instrumentation():
    yield
    hooks.disable()


def _mixed_workload(fs, now=0.0):
    """Reads + writes through every modeled path (direct and buffered)."""
    direct = fs.open("/direct", o_direct=True, create=True)
    now = fs.write(direct, 0, 2 * MIB, now=now).finish_time
    now = fs.read(direct, 0, 2 * MIB, now=now).finish_time
    buffered = fs.open("/buffered", create=True)
    now = fs.write(buffered, 0, 1 * MIB, now=now).finish_time
    now = fs.fsync(buffered, now=now).finish_time
    now = fs.read(buffered, 0, 1 * MIB, now=now).finish_time
    now = fs.unlink("/direct", now=now).finish_time
    return now


@pytest.mark.parametrize("device_kind", ["hdd", "microsd", "flash", "optane"])
def test_invariant_holds_on_every_device_model(device_kind):
    with hooks.use(Instrumentation()) as obs:
        device = make_device(device_kind, capacity=1 * GIB)
        fs = make_filesystem("ext4", device)
        _mixed_workload(fs)
        attribution = analysis.attribute(obs.registry)
    assert attribution.total > 0
    assert attribution.check(tolerance=0.01), (
        f"{device_kind}: residual {attribution.residual} "
        f"of total {attribution.total}"
    )
    # the residual is float noise, not a modeling gap
    assert abs(attribution.residual) < 1e-9 * max(1.0, attribution.total)


@pytest.mark.parametrize("fs_type", ["ext4", "f2fs", "btrfs"])
def test_invariant_holds_on_every_fs_personality(fs_type):
    with hooks.use(Instrumentation()) as obs:
        device = make_device("flash", capacity=1 * GIB)
        fs = make_filesystem(fs_type, device)
        _mixed_workload(fs)
        attribution = analysis.attribute(obs.registry)
    assert attribution.total > 0
    assert attribution.check(tolerance=0.01)


def test_components_cover_device_character():
    """Seek-dominated devices must show penalty time; optane must not."""
    def run_on(kind):
        with hooks.use(Instrumentation()) as obs:
            device = make_device(kind, capacity=1 * GIB)
            fs = make_filesystem("ext4", device)
            make_paper_synthetic_file(fs, "/target", 8 * MIB)
            sequential_read(fs, "/target", now=0.0)
            return analysis.attribute(obs.registry)

    hdd = run_on("hdd")
    optane = run_on("optane")
    assert hdd.components["device_penalty"] > 0
    assert optane.components["device_penalty"] == 0.0
    assert hdd.check() and optane.check()


def test_split_cost_collapses_after_defragmentation():
    """The paper's core claim, visible in the attribution: defragmenting a
    shredded file removes the request-split fan-out cost."""
    def measure(defrag):
        with hooks.use(Instrumentation()) as obs:
            device = make_device("optane", capacity=1 * GIB)
            fs = make_filesystem("ext4", device)
            now = make_paper_synthetic_file(fs, "/target", 8 * MIB)
            if defrag:
                picker = FragPicker(fs)
                now = picker.defragment_bypass(["/target"], now=now).finished_at
            baseline = obs.registry.snapshot()
            sequential_read(fs, "/target", now=now)
            window = analysis.delta_metrics(obs.registry, baseline)
        return analysis.attribute(window)

    fragmented = measure(defrag=False)
    contiguous = measure(defrag=True)
    assert fragmented.check() and contiguous.check()
    assert fragmented.components["split_cost"] > 0
    # after migration the file is one extent: one command per request
    assert contiguous.components["split_cost"] == pytest.approx(0.0, abs=1e-12)
    assert contiguous.total < fragmented.total


def test_attribute_accepts_json_metrics_roundtrip():
    with hooks.use(Instrumentation()) as obs:
        device = make_device("flash", capacity=1 * GIB)
        fs = make_filesystem("ext4", device)
        _mixed_workload(fs)
        live = analysis.attribute(obs.registry)
        dumped = obs.registry.to_dict()
    from_json = analysis.attribute(dumped)
    assert from_json.total == pytest.approx(live.total)
    assert from_json.components == pytest.approx(live.components)
    doc = from_json.to_dict()
    assert doc["schema"] == "repro.obs.attribution/v1"
    assert doc["ok"] is True


def test_attribution_table_lists_every_component():
    with hooks.use(Instrumentation()) as obs:
        device = make_device("hdd", capacity=1 * GIB)
        fs = make_filesystem("ext4", device)
        _mixed_workload(fs)
        table = analysis.attribute(obs.registry).table()
    for key, _, _ in analysis.COMPONENTS:
        assert key in table
    assert "(total measured)" in table


def test_measured_variant_attaches_metrics_and_attribution():
    with hooks.use(Instrumentation()):
        device = make_device("optane", capacity=1 * GIB)
        fs = make_filesystem("ext4", device)
        handle = fs.open("/warmup", o_direct=True, create=True)
        fs.write(handle, 0, 256 * KIB)  # traffic before the window opens
        with measured_variant() as window:
            inner = fs.open("/inner", o_direct=True, create=True)
            fs.write(inner, 0, 512 * KIB)
    assert window.metrics is not None
    assert window.attribution is not None
    # the window excludes the warmup traffic: totals reflect 512 KiB only
    windowed = analysis.attribute(window.metrics)
    assert windowed.check()
    assert window.attribution["total_s"] == pytest.approx(windowed.total)
    fanout = window.fanout_summary()
    assert fanout["count"] >= 1


def test_measured_variant_is_inert_when_obs_disabled():
    with measured_variant() as window:
        pass
    assert window.metrics is None and window.attribution is None
    assert isinstance(window, ObsWindow)
