"""Shared fixtures: small, fast device + filesystem instances."""

from __future__ import annotations

import pytest

from repro.constants import GIB
from repro.device import make_device
from repro.fs import make_filesystem


@pytest.fixture(autouse=True)
def _ledger_in_tmp(tmp_path, monkeypatch):
    """Route run-ledger writes into the test's tmp dir.

    Document verbs append manifests to benchmarks/ledger by default;
    tests must never grow the working tree.  Ledger tests override via
    an explicit directory argument.
    """
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))


@pytest.fixture
def optane():
    return make_device("optane", capacity=1 * GIB)


@pytest.fixture
def flash():
    return make_device("flash", capacity=1 * GIB)


@pytest.fixture
def microsd():
    return make_device("microsd", capacity=1 * GIB)


@pytest.fixture
def hdd():
    return make_device("hdd", capacity=4 * GIB)


@pytest.fixture
def fs(optane):
    """Default filesystem: Ext4 on Optane."""
    return make_filesystem("ext4", optane)


@pytest.fixture(params=["ext4", "f2fs", "btrfs"])
def any_fs(request):
    """One of each filesystem personality, on a fresh Optane."""
    return make_filesystem(request.param, make_device("optane", capacity=1 * GIB))


@pytest.fixture(scope="session")
def sample_documents():
    """One real document per type, keyed by kind: the committed BENCH
    baseline, seed-fixed smoke FLEET/SLO runs and a REPLAY of the golden
    binary trace."""
    import json
    import os

    from repro.fleet import FleetConfig, FleetSlo, run_fleet
    from repro.replay import run_replay

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "benchmarks/baselines/BENCH_ci_baseline.json")) as fh:
        bench = json.load(fh)
    config = FleetConfig.smoke(volumes=4, seed=0)
    monitor = FleetSlo(config)
    fleet = run_fleet(config, slo=monitor).to_dict()
    slo = monitor.document("smoke", {"kind": "fleet", "config": config.to_dict()})
    replay = run_replay(os.path.join(root, "tests/golden/trace_small.bin"))
    return {"bench": bench, "fleet": fleet, "replay": replay.to_dict("golden"),
            "slo": slo}
