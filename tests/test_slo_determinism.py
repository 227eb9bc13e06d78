"""End-to-end SLO determinism: fleet gating, storms, byte-stable docs."""

import dataclasses
import json

import pytest

from repro.fleet import FleetConfig, FleetSlo, make_volume_specs, run_fleet
from repro.fleet.slo import DEFAULT_LATENCY_SLO_S, fleet_specs, volume_spec
from repro.obs import hooks
from repro.obs.hooks import Instrumentation
from repro.obs.slo import compare, validate


@pytest.fixture(autouse=True)
def _restore_global_instrumentation():
    yield
    hooks.disable()


def _config(**overrides):
    return dataclasses.replace(FleetConfig.smoke(), **overrides)


def _slo_run(config, armed=False):
    monitor = FleetSlo(config)
    if armed:
        with hooks.use(Instrumentation()):
            report = run_fleet(config, slo=monitor)
    else:
        report = run_fleet(config, slo=monitor)
    return monitor, report


def _doc(monitor, config):
    return monitor.document("test", {"kind": "fleet", "config": config.to_dict()})


# -- document byte-reproducibility -------------------------------------


def test_same_seed_same_document_bytes():
    config = _config()
    a = json.dumps(_doc(_slo_run(config)[0], config), sort_keys=True)
    b = json.dumps(_doc(_slo_run(config)[0], config), sort_keys=True)
    assert a == b


def test_armed_instrumentation_does_not_change_the_document():
    config = _config(faults=True)
    plain = json.dumps(_doc(_slo_run(config)[0], config), sort_keys=True)
    armed = json.dumps(
        _doc(_slo_run(config, armed=True)[0], config), sort_keys=True
    )
    assert plain == armed


def test_fault_storm_document_is_reproducible_and_valid():
    config = _config(faults=True)
    docs = [_doc(_slo_run(config)[0], config) for _ in range(2)]
    assert docs[0] == docs[1]
    validate(docs[0])


# -- gating vs plain fleet ----------------------------------------------


def test_plain_fleet_fingerprint_unchanged_by_slo_machinery_existing():
    config = _config()
    assert run_fleet(config).fingerprint == run_fleet(config).fingerprint
    # and a plain report has no slo section at all
    report = run_fleet(config)
    assert report.slo is None
    assert "slo" not in report.to_dict()


def test_gated_and_ungated_fingerprints_differ():
    config = _config()
    plain = run_fleet(config)
    monitor, gated = _slo_run(config)
    # gating reorders admissions, and the config stamp marks the run
    assert "slo" in gated.to_dict()["config"]
    assert plain.fingerprint != gated.fingerprint


def test_gated_report_carries_alerts_and_promotions():
    config = _config(faults=True)
    monitor, report = _slo_run(config)
    section = report.to_dict()["slo"]
    assert section["latency_slo_s"] == DEFAULT_LATENCY_SLO_S
    assert set(section["slos"]) == {s.name for s in fleet_specs(config)}
    assert len(section["alerts"]) >= 1  # the storm must fire
    assert section["volume_alerts"] >= 1
    for promo in section["promotions"]:
        assert set(promo) == {"tick", "volume"}
    assert "SLO gating" in report.text()


def test_storm_regresses_against_clean_run_direction_aware():
    clean_cfg = _config()
    storm_cfg = _config(faults=True)
    clean = _doc(_slo_run(clean_cfg)[0], clean_cfg)
    storm = _doc(_slo_run(storm_cfg)[0], storm_cfg)
    comparison = compare(clean, storm)
    regressions = [f for f in comparison.findings if f.regression]
    assert regressions, "fault storm must regress at least one SLO metric"
    # every compared metric moves in its declared direction
    for finding in regressions:
        if finding.metric in ("compliance", "budget_remaining"):
            assert finding.candidate < finding.baseline
        else:
            assert finding.candidate > finding.baseline


# -- monitor wiring -----------------------------------------------------


def test_volume_alert_promotes_queued_volume():
    config = _config(faults=True)
    monitor, report = _slo_run(config)
    promoted = {p["volume"] for p in monitor.promotions}
    volume_slos = {
        name for name in (a["slo"] for a in monitor.plane.alerts)
        if name.startswith("vol.")
    }
    # every promotion traces back to a per-volume burn alert
    for volume in promoted:
        assert any(volume in name for name in volume_slos)


def test_for_config_builds_one_spec_per_volume():
    config = _config()
    monitor = FleetSlo(config)
    names = [s.name for s in monitor.plane.specs]
    fleet_names = [s.name for s in fleet_specs(config)]
    assert names[:len(fleet_names)] == fleet_names
    assert names[len(fleet_names):] == [
        volume_spec(spec.name, DEFAULT_LATENCY_SLO_S).name
        for spec in make_volume_specs(config)
    ]
    # the for_config spelling builds the same monitor
    assert [s.name for s in FleetSlo.for_config(config).plane.specs] == names


def test_volume_spec_shape():
    spec = volume_spec("vol0001", 0.002)
    assert spec.metric == "vol.vol0001.read_latency_s"
    assert spec.objective == "le"
    assert spec.threshold == 0.002


def test_custom_latency_objective_changes_judgment():
    config = _config()
    strict = FleetSlo(config, latency_slo_s=1e-6)
    run_fleet(config, slo=strict)
    lax = FleetSlo(config, latency_slo_s=10.0)
    run_fleet(config, slo=lax)
    def latency_bad(monitor):
        return sum(
            summary["bad_samples"]
            for name, summary in monitor.plane.summaries().items()
            if "latency" in name
        )

    assert latency_bad(strict) > latency_bad(lax) == 0
