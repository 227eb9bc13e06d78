"""The parallel engine: canonical merge, failure modes, determinism.

Spawned pools cost real wall-clock on small hosts, so every parallel
test here uses the smallest config that still proves its property; the
serial-equivalence guarantees these tests pin are what lets every other
suite in the repo stay serial.
"""

from __future__ import annotations

import time

import pytest

from repro.errors import InvalidArgument
from repro.faults import hooks as fault_hooks
from repro.faults.campaign import CampaignConfig, run_campaign_series
from repro.fleet.spec import FleetConfig
from repro.fs import extent_map
from repro.obs import hooks as obs_hooks
from repro.obs.hooks import Instrumentation
from repro.par import (
    ParallelPlan,
    ShardError,
    resolve_workers,
    run_sharded,
)
from repro.replay.formats import BinaryTraceReader
from repro.replay.generate import TraceProfile, generate_trace


# ----------------------------------------------------------------------
# module-level shard functions (must pickle into spawn workers)
# ----------------------------------------------------------------------

def _square(x):
    return x * x


def _fail_on_two(x):
    if x == 2:
        raise ValueError("two is right out")
    return x


def _sleep_then_value(payload):
    delay, value = payload
    time.sleep(delay)
    return value


def _report_globals(_):
    obs = obs_hooks.current()
    # with an armed parent, the shard runs under a *fresh* harvest child
    # — never the parent's registry, never a polluted one: every metric
    # zero, no spans, no events
    obs_is_clean = obs is obs_hooks.NULL or (
        not obs.spans.spans
        and not obs.spans.events
        and all(
            not entry.get("value") and not entry.get("count")
            for entry in obs.registry.to_dict().values()
        )
    )
    return (
        extent_map.DEBUG_CHECKS,
        obs_is_clean,
        fault_hooks.current() is fault_hooks.NULL,
    )


# ----------------------------------------------------------------------
# ParallelPlan / run_sharded
# ----------------------------------------------------------------------

def test_resolve_workers_validation():
    assert resolve_workers(None) is None
    assert resolve_workers(1) == 1
    assert resolve_workers(8) == 8
    with pytest.raises(InvalidArgument):
        resolve_workers(0)
    with pytest.raises(InvalidArgument):
        resolve_workers(-3)


def test_serial_path_runs_in_process():
    # workers=None never spawns: a closure (unpicklable) works fine
    seen = []

    def record(x):
        seen.append(x)
        return x + 1

    plan = ParallelPlan(record, [1, 2, 3])
    assert plan.run() == [2, 3, 4]
    assert seen == [1, 2, 3]
    assert plan.stats.shards == 3 and not plan.stats.parallel


def test_empty_payloads_short_circuit():
    plan = ParallelPlan(_square, [], workers=4)
    assert plan.run() == []
    assert not plan.stats.parallel


def test_merge_is_shard_order_not_completion_order():
    # shard 0 sleeps past shard 1's finish; the merge must still return
    # results in payload order
    results = run_sharded(
        _sleep_then_value, [(0.4, "slow"), (0.0, "fast")], workers=2
    )
    assert results == ["slow", "fast"]


def test_shard_error_carries_index_and_discards_partials():
    with pytest.raises(ShardError) as excinfo:
        run_sharded(_fail_on_two, [1, 2, 3], workers=2)
    error = excinfo.value
    assert error.shard == 1
    assert error.cause_type == "ValueError"
    assert "two is right out" in str(error)
    assert "ValueError" in error.traceback_text


def test_timeout_falls_back_to_serial_and_counts():
    obs = Instrumentation()
    with obs_hooks.use(obs):
        plan = ParallelPlan(
            _sleep_then_value, [(0.75, "late")], workers=1, timeout_s=0.05
        )
        assert plan.run() == ["late"]
    assert plan.stats.timeouts == 1
    assert plan.stats.serial_fallbacks == 1
    metrics = obs.registry.to_dict()
    assert metrics["par.shard_timeouts"]["value"] == 1
    assert metrics["par.serial_fallbacks"]["value"] == 1
    assert metrics["par.plans"]["value"] == 1
    assert metrics["par.shards"]["value"] == 1


def test_worker_state_is_scrubbed_despite_polluted_parent():
    # arm every global the parent could leak; the worker must still see
    # a fresh process (satellite: worker-first-result == fresh-process)
    plane = fault_hooks.FaultPlane(
        FleetConfig.smoke(volumes=2, faults=True).fault_plan()
    )
    extent_map.DEBUG_CHECKS = True
    try:
        with obs_hooks.use(Instrumentation()):
            with fault_hooks.use(plane):
                (state,) = run_sharded(_report_globals, [0], workers=1)
    finally:
        extent_map.DEBUG_CHECKS = False
    debug_checks, obs_is_clean, faults_is_null = state
    assert debug_checks is False
    assert obs_is_clean and faults_is_null


def test_campaign_series_identity_under_polluted_parent():
    config = CampaignConfig(seed=5, files=2)
    clean = run_campaign_series(config, trials=2)
    extent_map.DEBUG_CHECKS = True
    try:
        with obs_hooks.use(Instrumentation()):
            polluted = run_campaign_series(config, trials=2, workers=2)
    finally:
        extent_map.DEBUG_CHECKS = False
    assert polluted.to_dict() == clean.to_dict()
    assert polluted.fingerprint == clean.fingerprint


# ----------------------------------------------------------------------
# serial-vs-parallel document identity
# ----------------------------------------------------------------------

def test_replay_chunked_corpus_worker_count_invariant(tmp_path):
    profile = TraceProfile(ops=6_000, seed=9)
    one = tmp_path / "w1.bin"
    two = tmp_path / "w2.bin"
    n1 = generate_trace(str(one), profile, workers=1, chunk_ops=1_500)
    n2 = generate_trace(str(two), profile, workers=2, chunk_ops=1_500)
    assert n1 == n2
    assert one.read_bytes() == two.read_bytes()
    reader = BinaryTraceReader(str(one))
    assert sum(1 for _ in reader) == n1
    assert reader.stats.malformed == 0
    assert reader.stats.out_of_order == 0
