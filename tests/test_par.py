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
from repro.fleet.spec import FleetConfig
from repro.fs import extent_map
from repro.obs import hooks as obs_hooks
from repro.obs.hooks import Instrumentation
from repro.par import ShardError, resolve_workers, run_sharded
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
    # an armed parent's instrumentation never reaches the worker
    return (
        extent_map.DEBUG_CHECKS,
        obs_hooks.current() is obs_hooks.NULL,
        fault_hooks.current() is fault_hooks.NULL,
    )


# ----------------------------------------------------------------------
# run_sharded
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

    assert run_sharded(record, [1, 2, 3]) == [2, 3, 4]
    assert seen == [1, 2, 3]


def test_empty_payloads_short_circuit():
    # no pool is spawned for an empty work list, even with workers set
    assert run_sharded(_square, [], workers=4) == []


def test_armed_parent_counts_plans_and_shards_on_both_paths():
    def counters(workers):
        obs = Instrumentation()
        with obs_hooks.use(obs):
            assert run_sharded(_square, [2, 3], workers=workers) == [4, 9]
        metrics = obs.registry.to_dict()
        return metrics["par.plans"]["value"], metrics["par.shards"]["value"]

    assert counters(None) == counters(2) == (1, 2)


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
    debug_checks, obs_is_null, faults_is_null = state
    assert debug_checks is False
    assert obs_is_null and faults_is_null


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
