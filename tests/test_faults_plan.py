"""The fault-plan DSL: validation and fluent builders."""

import pytest

from repro.errors import InvalidArgument
from repro.faults import FaultPlan, FaultPlane, FaultRule


def test_unknown_kind_rejected():
    with pytest.raises(InvalidArgument):
        FaultRule(site="fs.write", kind="gremlin")


def test_probability_bounds():
    with pytest.raises(InvalidArgument):
        FaultRule(site="fs", kind="io_error", probability=1.5)
    with pytest.raises(InvalidArgument):
        FaultRule(site="fs", kind="io_error", probability=-0.1)
    FaultRule(site="fs", kind="io_error", probability=0.0)
    FaultRule(site="fs", kind="io_error", probability=1.0)


def test_after_ops_is_one_based():
    with pytest.raises(InvalidArgument):
        FaultRule(site="fs", kind="crash", after_ops=0)
    FaultRule(site="fs", kind="crash", after_ops=1)


def test_torn_fraction_bounds():
    with pytest.raises(InvalidArgument):
        FaultRule(site="fs.write", kind="torn", torn_fraction=1.0)
    FaultRule(site="fs.write", kind="torn", torn_fraction=0.0)


def test_max_fires_nonnegative():
    with pytest.raises(InvalidArgument):
        FaultRule(site="fs", kind="io_error", max_fires=-1)


def test_fluent_builders_chain():
    plan = (
        FaultPlan(seed=3)
        .io_error("device.submit", op="read")
        .latency_spike("fs.fsync", latency=0.25)
        .torn_write("fs.write", torn_fraction=0.25)
        .crash("fs", after_ops=9)
    )
    kinds = [rule.kind for rule in plan.rules]
    assert kinds == ["io_error", "latency", "torn", "crash"]
    assert plan.rules[1].latency == 0.25
    assert plan.rules[2].op == "write"  # torn implies write
    assert plan.rules[3].after_ops == 9
    assert plan.seed == 3


@pytest.mark.parametrize("site", ["block", "block.submit", "", "bl"])
def test_torn_rule_covering_the_block_layer_rejected(site):
    # the block layer dispatches batches it cannot tear: such a rule
    # would be recorded as fired without tearing anything
    with pytest.raises(InvalidArgument, match=repr(site)):
        FaultPlan().torn_write(site)
    with pytest.raises(InvalidArgument, match=repr(site)):
        FaultRule(site=site, kind="torn")


def test_torn_rule_outside_the_block_layer_accepted():
    for site in ("fs.write", "fs", "device.submit", "device", "blocks", "block.queue"):
        FaultPlane(FaultPlan().torn_write(site))
    # other kinds may still aim at the block layer
    FaultPlane(FaultPlan().io_error("block.submit").latency_spike("block"))
