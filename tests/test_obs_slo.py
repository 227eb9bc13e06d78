"""The SLO engine: specs, burn-rate math, documents, comparison."""

import json

import pytest

from repro.obs import hooks
from repro.obs.hooks import Instrumentation
from repro.obs.slo import (
    SCHEMA,
    SloEvaluator,
    SloPlane,
    SloSpec,
    build_document,
    compare,
    fingerprint,
    load,
    prometheus_registry,
    report_text,
    save,
    validate,
)


@pytest.fixture(autouse=True)
def _restore_global_instrumentation():
    yield
    hooks.disable()


def _spec(**overrides):
    base = dict(
        name="lat", metric="lat_s", threshold=1.0, objective="le",
        target=0.90, fast_windows=1, slow_windows=2,
        fast_burn=2.0, slow_burn=1.5,
    )
    base.update(overrides)
    return SloSpec(**base)


# -- specs -------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        _spec(objective="eq")
    with pytest.raises(ValueError):
        _spec(target=1.0)
    with pytest.raises(ValueError):
        _spec(target=0.0)
    with pytest.raises(ValueError):
        _spec(fast_windows=0)
    with pytest.raises(ValueError):
        _spec(fast_burn=0.0)


def test_spec_objective_directions_and_budget():
    le = _spec(objective="le")
    assert not le.bad(1.0) and le.bad(1.01)
    ge = _spec(objective="ge")
    assert not ge.bad(1.0) and ge.bad(0.99)
    assert _spec(target=0.90).budget == pytest.approx(0.10)


# -- evaluator burn math -----------------------------------------------


def test_burn_rate_definition():
    # target 0.90 => budget 0.10; 2 bad of 4 => bad fraction 0.5 => burn 5
    ev = SloEvaluator(_spec())
    verdict = ev.evaluate_window(0, [0.5, 2.0, 3.0, 0.1])
    assert verdict.samples == 4 and verdict.bad == 2
    assert verdict.burn == pytest.approx(5.0)
    assert verdict.breach


def test_idle_window_burns_nothing_but_advances_the_tail():
    ev = SloEvaluator(_spec())
    ev.evaluate_window(0, [2.0, 2.0])  # burn 10
    verdict = ev.evaluate_window(1, [])
    assert verdict.burn == 0.0
    assert not verdict.breach
    # slow window mean covers both: (10 + 0) / 2
    assert verdict.slow == pytest.approx(5.0)
    assert ev.compliance == pytest.approx(0.0)  # 2 bad of 2 samples


def test_alert_requires_fast_and_slow_together():
    # fast_burn 2.0 over 1 window, slow_burn 1.5 over 2 windows
    ev = SloEvaluator(_spec())
    # spike in the first window alone: fast fires, slow mean == fast here
    v0 = ev.evaluate_window(0, [2.0])  # burn 10
    assert v0.alert
    # a clean window then a mild spike: fast 5, slow (0+5)/2 = 2.5 -> alert
    ev2 = SloEvaluator(_spec())
    ev2.evaluate_window(0, [0.1])
    v1 = ev2.evaluate_window(1, [2.0, 0.1])  # burn 5
    assert v1.fast == pytest.approx(5.0)
    assert v1.slow == pytest.approx(2.5)
    assert v1.alert
    # mild spike whose slow confirmation fails: fast 2.0, slow 1.0
    ev3 = SloEvaluator(_spec(fast_burn=2.0, slow_burn=1.5))
    ev3.evaluate_window(0, [0.1, 0.1, 0.1, 0.1, 0.1])  # burn 0
    v2 = ev3.evaluate_window(1, [2.0, 0.1, 0.1, 0.1, 0.1])  # burn 2
    assert v2.fast == pytest.approx(2.0)
    assert v2.slow == pytest.approx(1.0)
    assert not v2.alert


def test_budget_accounting_sums_to_one():
    ev = SloEvaluator(_spec())
    ev.evaluate_window(0, [2.0, 0.1, 0.1, 0.1])  # 1 bad of 4
    assert ev.budget_consumed == pytest.approx(2.5)
    assert ev.budget_remaining == pytest.approx(-1.5)
    assert ev.budget_consumed + ev.budget_remaining == pytest.approx(1.0)
    summary = ev.summary()
    assert summary["compliance"] == pytest.approx(0.75)
    assert summary["last_fast_burn"] == summary["burn"][-1]


def test_idle_evaluator_reports_full_compliance():
    ev = SloEvaluator(_spec())
    assert ev.compliance == 1.0
    assert ev.budget_consumed == 0.0
    assert ev.summary()["last_slow_burn"] == 0.0


# -- the plane ----------------------------------------------------------


def test_plane_rejects_duplicate_names():
    with pytest.raises(ValueError, match="duplicate"):
        SloPlane([_spec(), _spec()], window=1.0)


def test_plane_window_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        SloPlane([_spec()], window=0.0)
    with pytest.raises(ValueError, match="positive"):
        SloPlane([_spec()], window=-1.0)


def test_window_geometry_keyed_to_virtual_clock():
    # window i covers [i * w, (i + 1) * w): its verdicts land at (i + 1) * w
    obs = Instrumentation()
    plane = SloPlane([_spec()], window=0.25)
    with hooks.use(obs):
        fired = [plane.evaluate(index, {"lat_s": [2.0]}) for index in range(4)]
    assert [rows[0]["time_s"] for rows in fired] == [0.25, 0.5, 0.75, 1.0]
    assert [rows[0]["window"] for rows in fired] == [0, 1, 2, 3]
    breaches = [e for e in obs.spans.events if e.name == "slo.breach"]
    assert [e.time for e in breaches] == [0.25, 0.5, 0.75, 1.0]


def test_every_value_in_a_busy_window_is_judged():
    # no per-window value cap: 5,000 good samples, then 100 bad ones
    plane = SloPlane([_spec()], window=1.0)
    plane.evaluate(0, {"lat_s": [0.1] * 5000 + [2.0] * 100})
    summary = plane.evaluators["lat"].summary()
    assert summary["samples"] == 5100
    assert summary["bad_samples"] == 100
    assert summary["compliance"] == pytest.approx(5000 / 5100)


def test_specs_sharing_a_metric_judge_the_same_values():
    plane = SloPlane([_spec(), _spec(name="lat2", threshold=0.05)], window=1.0)
    plane.evaluate(0, {"lat_s": [0.1], "untracked_s": [9.0]})
    assert plane.evaluators["lat"].last.bad == 0
    assert plane.evaluators["lat2"].last.bad == 1
    assert plane.evaluators["lat"].samples == 1


def test_same_points_produce_identical_verdicts():
    points = [(0.07 * i, float(i % 5) / 2) for i in range(100)]
    windows = {}
    for t, v in points:
        windows.setdefault(int(t / 0.25), []).append(v)
    summaries = []
    for _ in range(2):
        plane = SloPlane([_spec()], window=0.25)
        for index in range(max(windows) + 1):
            plane.evaluate(index, {"lat_s": windows.get(index, [])})
        summaries.append((plane.summaries(), plane.alerts))
    assert summaries[0] == summaries[1]


def test_plane_evaluates_each_window_once():
    plane = SloPlane([_spec()], window=1.0)
    fired = plane.evaluate(0, {"lat_s": [2.0]})
    assert len(fired) == 1  # burn 10 >= fast 2 and slow 1.5
    ev = plane.evaluators["lat"]
    assert ev.windows == 1
    assert plane.evaluate(1, {}) == []
    plane.evaluate(2, {})
    assert ev.windows == 3  # idle windows are judged too, once per call
    assert plane.alerts == fired


def test_plane_mirrors_into_armed_instrumentation_only():
    plane = SloPlane([_spec()], window=1.0)
    plane.evaluate(0, {"lat_s": [2.0]})  # unarmed: no mirroring, no crash

    obs = Instrumentation()
    armed = SloPlane([_spec()], window=1.0)
    with hooks.use(obs):
        armed.evaluate(0, {"lat_s": [2.0]})
    assert obs.registry.counter("slo.breaches").value == 1
    assert obs.registry.counter("slo.alerts").value == 1
    assert obs.registry.gauge("slo.lat.burn_fast").value == pytest.approx(10.0)
    names = [e.name for e in obs.spans.events]
    assert "slo.breach" in names and "slo.burn" in names


# -- documents ----------------------------------------------------------


def _document():
    plane = SloPlane([_spec()], window=1.0)
    plane.evaluate(0, {"lat_s": [2.0]})
    plane.evaluate(1, {"lat_s": [0.1]})
    return build_document("unit", {"kind": "unit", "seed": 3}, plane)


def test_document_shape_save_load_validate(tmp_path):
    document = _document()
    assert document["schema"] == SCHEMA
    assert document["fingerprint"] == fingerprint(document)
    validate(document)
    path = tmp_path / "SLO_unit.json"
    save(str(path), document)
    assert load(str(path)) == document
    with pytest.raises(ValueError, match="schema"):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "nope"}))
        load(str(bad))


def test_validate_catches_tampering():
    document = _document()
    tampered = json.loads(json.dumps(document))
    tampered["slos"]["lat"]["compliance"] = 1.0
    with pytest.raises(ValueError, match="fingerprint"):
        validate(tampered)


def test_report_text_lists_alerts_and_fingerprint():
    document = _document()
    text = report_text(document)
    assert "lat_s le 1" in text
    assert "burn-rate alert" in text
    assert document["fingerprint"] in text


def test_prometheus_registry_exports_budget_gauges():
    registry = prometheus_registry(_document())
    summary = _document()["slos"]["lat"]
    gauge = registry.gauge("slo.lat.budget_remaining")
    assert gauge.value == pytest.approx(summary["budget_remaining"])
    assert registry.counter("slo.lat.breaches").value == summary["breaches"]


# -- comparison ---------------------------------------------------------


def _doc_with(compliance_values):
    plane = SloPlane([_spec()], window=1.0)
    for index, value in enumerate(compliance_values):
        plane.evaluate(index, {"lat_s": [value]})
    return build_document("cmp", {"kind": "unit"}, plane)


def test_compare_is_direction_aware():
    good = _doc_with([0.1, 0.1, 0.1, 0.1])
    bad = _doc_with([2.0, 2.0, 0.1, 0.1])
    comparison = compare(good, bad)
    assert comparison.kind == "slo"
    regressions = {f.metric for f in comparison.findings if f.regression}
    assert "compliance" in regressions or "budget_remaining" in regressions
    assert "breaches" in regressions
    # the other direction is an improvement, not a regression
    assert not any(f.regression for f in compare(bad, good).findings)


def test_compare_warns_on_source_mismatch_and_missing_slos():
    a = _doc_with([0.1])
    b = _doc_with([0.1])
    b["source"] = {"kind": "other"}
    comparison = compare(a, b)
    assert any("sources differ" in w for w in comparison.warnings)
    c = _doc_with([0.1])
    c["slos"] = {}
    comparison = compare(a, c)
    assert any("missing" in w for w in comparison.warnings)
