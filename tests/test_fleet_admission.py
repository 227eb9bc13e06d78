"""Admission + throttling edge cases: the fleet's two brakes."""

import pytest

from repro.constants import KIB, MIB
from repro.fleet import AdmissionController, FleetConfig, TickBudget, run_fleet


# ----------------------------------------------------------------------
# TickBudget
# ----------------------------------------------------------------------

def test_budget_strict_pre_reservation():
    budget = TickBudget(per_tick=1 * MIB)
    budget.begin_tick()
    assert budget.try_reserve(512 * KIB)
    assert budget.try_reserve(512 * KIB)
    # exhausted mid-tick: the next range must wait, spend is untouched
    assert not budget.try_reserve(1)
    assert budget.spent_this_tick == 1 * MIB
    # a fresh tick window clears the brake (nothing banks across ticks)
    budget.begin_tick()
    assert budget.try_reserve(1 * MIB)
    budget.close()
    assert budget.history == [1 * MIB, 1 * MIB]
    assert budget.spent_total == 2 * MIB


def test_budget_unlimited_and_remaining():
    budget = TickBudget(per_tick=None)
    budget.begin_tick()
    assert budget.remaining is None
    assert budget.try_reserve(10 * MIB)
    limited = TickBudget(per_tick=4 * MIB)
    limited.begin_tick()
    limited.try_reserve(1 * MIB)
    assert limited.remaining == 3 * MIB


def test_budget_rejects_negative():
    budget = TickBudget(per_tick=1 * MIB)
    budget.begin_tick()
    with pytest.raises(ValueError):
        budget.try_reserve(-1)


# ----------------------------------------------------------------------
# AdmissionController
# ----------------------------------------------------------------------

def test_admission_cap_and_fifo_deferral():
    admission = AdmissionController(max_jobs=1)
    assert admission.request("vol0")
    assert admission.request("vol1")
    assert not admission.request("vol1")  # idempotent while queued
    admitted = admission.admit(lambda name: name)
    assert [job for job in admitted] == ["vol0"]
    assert admission.deferred_ticks == 1  # vol1 waited this tick
    assert not admission.request("vol0")  # idempotent while running
    # the slot frees, the deferred volume is re-admitted next tick
    admission.finish("vol0")
    assert admission.admit(lambda name: name) == ["vol1"]
    assert admission.completed == 1
    assert admission.admitted == 2


# ----------------------------------------------------------------------
# controller-level edge cases (whole runs, smoke scale)
# ----------------------------------------------------------------------

def test_zero_volume_fleet_runs_clean():
    report = run_fleet(FleetConfig(volumes=0, ticks=2))
    assert report.volumes == 0
    assert report.jobs_admitted == 0
    assert report.fg_ops == 0
    assert report.fg_read_p99_s == 0.0
    assert report.budget_ok
    assert len(report.ticks) == 2


def test_all_volumes_below_trigger_admits_nothing():
    report = run_fleet(FleetConfig.smoke(volumes=4, seed=0, trigger=1e9))
    assert report.volumes_above_start == 0
    assert report.jobs_admitted == 0
    assert report.migrated_payload_bytes == 0
    assert report.fg_ops > 0  # foreground still ran


def test_budget_exhausted_mid_tick_resumes_next_tick():
    # a budget far smaller than one volume's fragmented payload: the job
    # must park mid-tick and finish over several windows
    report = run_fleet(FleetConfig.smoke(
        volumes=2, seed=0, budget_per_tick=256 * KIB, ticks=10,
    ))
    assert report.jobs_admitted >= 1
    assert report.jobs_budget_blocked_ticks >= 1
    spends = [row.migrated_bytes for row in report.ticks]
    assert max(spends) <= 256 * KIB  # never over budget
    assert sum(1 for s in spends if s > 0) >= 2  # resumed across ticks


def test_deferred_volume_readmitted_when_slot_frees():
    # several heavy volumes, one job slot: somebody must queue, and the
    # queue must drain as slots free up
    report = run_fleet(FleetConfig.smoke(
        volumes=6, seed=1, max_jobs=1, ticks=10,
    ))
    assert report.jobs_admitted >= 2
    assert report.jobs_deferred_ticks >= 1
    assert max(row.jobs_running for row in report.ticks) <= 1


def test_promote_moves_queued_volume_to_front():
    admission = AdmissionController(max_jobs=1)
    for name in ("a", "b", "c"):
        admission.request(name)
    assert admission.promote("c")
    assert list(admission.queue) == ["c", "a", "b"]
    # the next admission pass services the promoted volume first
    admitted = admission.admit(lambda name: name)
    assert admitted == ["c"]


def test_promote_never_admits_unqueued_volumes():
    admission = AdmissionController(max_jobs=2)
    admission.request("a")
    # unknown volume: gating reorders, it never invents admissions
    assert not admission.promote("ghost")
    assert list(admission.queue) == ["a"]
    # running volume: not queued either, promote is a no-op
    admission.admit(lambda name: name)
    assert not admission.promote("a")
    assert list(admission.queue) == []


def test_promote_is_stable_for_front_volume():
    admission = AdmissionController(max_jobs=1)
    admission.request("a")
    admission.request("b")
    assert admission.promote("a")
    assert list(admission.queue) == ["a", "b"]
