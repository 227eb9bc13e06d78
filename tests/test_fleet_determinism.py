"""The fleet determinism guard: one seed, one byte-identical document.

Mirrors the repo's other determinism guards (obs, faults): the fleet
fingerprint must be stable across runs and invariant under armed
instrumentation, so operators can diff FLEET documents across code
changes and trust any drift to be a real behavior change.
"""

import pytest

from repro.fleet import FleetConfig, run_fleet
from repro.obs import hooks as obs_hooks


@pytest.fixture(autouse=True)
def _restore_global_instrumentation():
    yield
    obs_hooks.disable()


def test_same_seed_byte_identical_document():
    config = FleetConfig.smoke(volumes=5, seed=42)
    first = run_fleet(config)
    second = run_fleet(config)
    assert first.to_dict() == second.to_dict()
    assert first.fingerprint == second.fingerprint


def test_different_seed_different_fingerprint():
    a = run_fleet(FleetConfig.smoke(volumes=5, seed=1))
    b = run_fleet(FleetConfig.smoke(volumes=5, seed=2))
    assert a.fingerprint != b.fingerprint


def test_fingerprint_unchanged_with_instrumentation_armed():
    config = FleetConfig.smoke(volumes=5, seed=42)
    disarmed = run_fleet(config)
    obs_hooks.enable()
    armed = run_fleet(config)
    obs_hooks.disable()
    assert armed.fingerprint == disarmed.fingerprint
    assert armed.to_dict() == disarmed.to_dict()


def test_faulted_fleet_is_deterministic_too():
    config = FleetConfig.smoke(volumes=6, seed=7, faults=True)
    first = run_fleet(config)
    second = run_fleet(config)
    assert first.to_dict() == second.to_dict()


def test_config_change_changes_fingerprint():
    base = run_fleet(FleetConfig.smoke(volumes=5, seed=3))
    tighter = run_fleet(FleetConfig.smoke(volumes=5, seed=3, max_jobs=1))
    assert base.fingerprint != tighter.fingerprint
