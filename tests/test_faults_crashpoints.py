"""The crash-consistency harness and seeded campaigns."""

import pytest

from repro.faults.campaign import (
    CampaignConfig,
    run_campaign,
    survival_report,
)
from repro.faults.crashpoints import (
    build_scenario,
    count_migration_syscalls,
    crash_sweep,
)
from repro.fs.fiemap import fragment_count


def small_sweep(device, tool, **kwargs):
    return crash_sweep(device=device, tool=tool, files=1, pieces=6, **kwargs)


def test_scenario_files_are_fragmented_and_content_bearing():
    scenario = build_scenario(files=2, pieces=6)
    for path in scenario.paths:
        assert fragment_count(scenario.fs, path) > 1
    blobs = scenario.contents()
    assert len(set(blobs.values())) == len(blobs)  # distinctive payloads
    assert all(blob.strip(b"\x00") for blob in blobs.values())


def test_syscall_enumeration_counts_the_migration_path():
    total = count_migration_syscalls(lambda: build_scenario(files=1, pieces=6), "fragpicker")
    # at least fiemap + read + punch + alloc + write + fsync
    assert total >= 6


@pytest.mark.parametrize("device", ["hdd", "microsd", "flash", "optane"])
def test_fragpicker_survives_every_crash_point(device):
    report = small_sweep(device, "fragpicker")
    assert report.total >= 6
    assert report.ok, report.summary()
    # every point actually crashed (the plan covers the whole fs path)
    assert all(p.crashed for p in report.points)
    # the crash points land on distinct syscall kinds, not one choke point
    assert len({p.site for p in report.points}) >= 3


def test_journal_carrying_conventional_tool_survives_too():
    report = small_sweep("optane", "conventional")
    assert report.ok, report.summary()


def test_sweep_report_shape():
    report = small_sweep("optane", "fragpicker")
    assert "crash points recovered" in report.summary()
    assert "[OK]" in report.summary()
    doc = report.to_dict()
    assert doc["ok"] is True and doc["failed_points"] == []
    assert doc["points"] == report.total


def test_unknown_tool_rejected():
    with pytest.raises(ValueError):
        crash_sweep(tool="defrag9000")


def test_campaign_survives_and_reports():
    result = run_campaign(CampaignConfig(seed=0, files=2))
    assert result.data_intact
    assert result.pending_after_recovery == 0
    assert result.faults_injected == sum(result.by_site_kind.values())
    doc = result.to_dict()
    assert doc["fingerprint"] == result.fingerprint


def test_survival_report_smoke():
    report = survival_report(smoke=True)
    assert report.ok
    text = report.text()
    assert "SURVIVED" in text
    assert "crash points recovered" in text
    assert report.to_dict()["ok"] is True
