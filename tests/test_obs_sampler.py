"""Fragmentation timelines: sampling, export, and memory bounds."""

import pytest

from repro.constants import GIB, KIB, MIB
from repro.core import FragPicker
from repro.device import make_device
from repro.fs import make_filesystem
from repro.obs import hooks
from repro.obs.export import chrome_trace
from repro.obs.hooks import Instrumentation
from repro.obs.sampler import SERIES_NAMES, FragmentationSampler
from repro.workloads.synthetic import make_paper_synthetic_file


@pytest.fixture(autouse=True)
def _restore_global_instrumentation():
    yield
    hooks.disable()


def _fragmented_fs():
    device = make_device("optane", capacity=1 * GIB)
    fs = make_filesystem("ext4", device)
    now = make_paper_synthetic_file(fs, "/target", 8 * MIB)
    return fs, now


def test_sampler_records_every_series_via_device_listener():
    fs, now = _fragmented_fs()
    sampler = FragmentationSampler(fs, interval=0.001, paths=["/target"])
    with sampler:
        handle = fs.open("/target", o_direct=True)
        for i in range(16):
            now = fs.read(handle, i * 128 * KIB, 128 * KIB, now=now).finish_time
    assert sampler.samples_taken >= 2
    for name in SERIES_NAMES:
        assert len(sampler.series[name]) == sampler.samples_taken
    # a shredded file: many extents, contiguity far from 1
    assert sampler.series["frag.extents_per_file"].last > 1.0
    assert 0.0 < sampler.series["frag.contiguity"].last < 1.0
    # detached: further traffic must not sample
    taken = sampler.samples_taken
    fs.read(handle, 0, 128 * KIB, now=now)
    assert sampler.samples_taken == taken


def test_contiguity_rises_across_defragmentation():
    fs, now = _fragmented_fs()
    sampler = FragmentationSampler(fs, interval=0.0005, paths=["/target"])
    sampler.sample(now)
    before = sampler.series["frag.contiguity"].last
    with sampler:
        picker = FragPicker(fs)
        now = picker.defragment_bypass(["/target"], now=now).finished_at
    sampler.sample(now)
    after = sampler.series["frag.contiguity"].last
    # bypass migration makes every 128 KiB request-sized piece contiguous:
    # ~1056 extents collapse to ~64, so the contiguity curve rises sharply
    # (it only reaches 1.0 when whole files end up as single extents)
    assert before < 0.01
    assert after > 10 * before
    first = sampler.series["frag.extents_per_file"].values[0]
    last = sampler.series["frag.extents_per_file"].last
    assert last < first / 10
    # timeline is monotone in time
    times = sampler.series["frag.contiguity"].times
    assert times == sorted(times)


def test_sampler_feeds_chrome_trace_counters_and_fragtimeline():
    with hooks.use(Instrumentation()) as obs:
        fs, now = _fragmented_fs()
        sampler = FragmentationSampler(fs, interval=0.001, paths=["/target"])
        sampler.sample(now)
        picker = FragPicker(fs)
        with sampler:
            picker.defragment_bypass(["/target"], now=now)
        document = chrome_trace(obs.spans, obs.registry, sampler=sampler)
    counters = [e for e in document["traceEvents"] if e.get("ph") == "C"]
    assert {e["name"] for e in counters} == set(SERIES_NAMES)
    timeline = document["fragTimeline"]
    assert timeline["schema"] == "repro.obs.fragtimeline/v1"
    assert timeline["samples"] == sampler.samples_taken
    assert len(timeline["series"]["frag.contiguity"]) == sampler.samples_taken
    # mirrored gauges land in the registry when obs is on, tracking the
    # latest sampled reading
    gauge = obs.registry.to_dict()["frag.contiguity"]["value"]
    assert gauge == pytest.approx(sampler.series["frag.contiguity"].last)


def test_sampler_bounds_memory_by_decimating():
    fs, now = _fragmented_fs()
    sampler = FragmentationSampler(fs, interval=0.001, paths=["/target"], max_samples=8)
    original_interval = sampler.interval
    for i in range(40):
        sampler.sample(now + i * 0.01)
    assert len(sampler.series["frag.contiguity"]) <= 2 * sampler.max_samples
    assert sampler.interval > original_interval
    assert sampler.samples_taken == 40


def test_sampler_rejects_nonpositive_interval():
    fs, _ = _fragmented_fs()
    with pytest.raises(ValueError):
        FragmentationSampler(fs, interval=0.0)


def test_attach_registers_the_listener_once():
    fs, _ = _fragmented_fs()
    sampler = FragmentationSampler(fs, interval=0.001, paths=["/target"])
    # a second attach while attached registers nothing more
    sampler.attach()
    sampler.attach()
    assert fs.device._listeners.count(sampler._on_batch) == 1
    assert sampler.attached
    # one detach removes the listener
    sampler.detach()
    assert not sampler.attached
    assert sampler._on_batch not in fs.device._listeners


def test_detach_without_attach_is_a_noop():
    fs, _ = _fragmented_fs()
    sampler = FragmentationSampler(fs, interval=0.001, paths=["/target"])
    sampler.detach()        # never attached: nothing to do, no error
    sampler.detach()
    assert not sampler.attached
    # and the sampler still works normally afterwards
    with sampler:
        assert sampler.attached
    assert not sampler.attached


def test_context_manager_detaches_when_body_raises():
    fs, _ = _fragmented_fs()
    sampler = FragmentationSampler(fs, interval=0.001, paths=["/target"])
    with pytest.raises(RuntimeError, match="boom"):
        with sampler:
            assert sampler.attached
            raise RuntimeError("boom")
    # __exit__ ran: listener gone
    assert not sampler.attached
    assert sampler._on_batch not in fs.device._listeners


def test_fleet_run_registers_each_sampler_once():
    from repro.fleet import FleetConfig, build_volumes, FleetController

    config = FleetConfig.smoke(volumes=4)
    volumes = build_volumes(config)
    try:
        for volume in volumes:
            volume.sampler.attach()  # the fleet-wide attachment
        controller = FleetController(config, volumes)
        controller.begin()
        for tick in range(config.ticks):
            controller.run_tick(tick)
            # a running job samples through the fleet-wide listener
            for volume in volumes:
                listeners = volume.device._listeners
                assert listeners.count(volume.sampler._on_batch) == 1
        assert controller.finish().jobs_admitted >= 1
    finally:
        for volume in volumes:
            volume.close()
    for volume in volumes:
        assert volume.sampler._on_batch not in volume.device._listeners
