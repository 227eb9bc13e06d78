"""Smoke tests of the experiment modules at tiny scales.

The full-scale runs live in benchmarks/; these keep the experiment code
itself covered by the fast unit suite, and pin the headline shape of each
at miniature size.
"""

import pytest

from repro.constants import KIB, MIB
from repro.obs import hooks as obs_hooks
from repro.obs.hooks import Instrumentation
from repro.bench.experiments import (
    ablation_phases,
    ablation_splitting,
    ext_endurance,
    ext_pba_defrag,
    ext_recurrence,
    fig4_frag_metrics,
    fig10_ycsb_rocksdb,
    fig12_hotness,
    sec522_discard_cost,
    synthetic_defrag,
)


def test_fig4_tiny():
    result = fig4_frag_metrics.run(
        devices=("optane",),
        file_size=4 * MIB,
        distance_file_size=1 * MIB,
        frag_sizes=[4 * KIB, 64 * KIB, 128 * KIB, 256 * KIB],
        frag_distances=[4 * KIB, 1024 * KIB],
    )
    row = result.sweeps["optane"].table1_row()
    assert row["cc_size_before"] > 0.5
    assert result.table1()
    assert result.figure4()


def test_synthetic_defrag_tiny():
    result = synthetic_defrag.run(
        "ext4", "optane", file_size=1 * MIB,
        variants=("original", "fragpicker"), patterns=("seq_read",),
    )
    fp = result.cell("fragpicker", "seq_read")
    orig = result.cell("original", "seq_read")
    assert fp.throughput_mbps > orig.throughput_mbps
    assert result.report()


def test_fig12_tiny():
    result = fig12_hotness.run(file_size=2 * MIB + 512 * KIB + 512 * KIB,
                               ops=200, criteria=[0.25, 1.0])
    assert set(result.sweeps) == {"uniform", "zipfian"}
    for points in result.sweeps.values():
        assert points[0].write_mb <= points[-1].write_mb + 0.01


def test_discard_tiny():
    result = sec522_discard_cost.run(file_size=8 * MIB)
    assert result.cost["fragpicker"] < result.cost["original"]


def test_splitting_tiny():
    result = ablation_splitting.run("flash", file_size=1 * MIB,
                                    frag_sizes=[4 * KIB, 128 * KIB])
    assert result.points[0].commands_per_syscall > result.points[1].commands_per_syscall


def test_phases_tiny():
    result = ablation_phases.run(file_size=1 * MIB)
    assert set(result.cells) == {"full", "no_merge", "no_check", "no_readahead"}


def test_endurance_tiny():
    result = ext_endurance.run(file_size=1 * MIB)
    assert result.cells["fragpicker"].pages_programmed < result.cells["conventional"].pages_programmed


def test_pba_tiny():
    result = ext_pba_defrag.run(file_size=1 * MIB)
    assert result.pba_fragpicker_mbps > result.stock_fragpicker_mbps


def test_recurrence_tiny():
    result = ext_recurrence.run(cycles=2)
    assert result.runs["fragpicker"].total_write_mb < result.runs["e4defrag"].total_write_mb


def _fig10_tiny(tool):
    """Figure 10's one protocol at trace-smoke sizes."""
    state = fig10_ycsb_rocksdb._build_state(
        96 * MIB, "optane", 16 * MIB, record_count=1_200, value_size=1024, seed=42
    )
    return fig10_ycsb_rocksdb._protocol(
        tool, *state, window_ops=200, warmup_ops=100, hotness=0.5
    )


def test_fig10_protocol_tiny():
    e4 = _fig10_tiny("e4defrag")
    fp = _fig10_tiny("fragpicker")
    # only FragPicker has an analysis phase; the tools differ in nothing else
    assert list(e4.phases) == ["before", "defrag", "after"]
    assert list(fp.phases) == ["before", "analysis", "defrag", "after"]
    for run in (e4, fp):
        assert run.fragments_after < run.fragments_before
        assert run.finished_at > 0.0
        # the null plane records no fan-out
        assert all(phase.fanout is None for phase in run.phases.values())
    assert fp.total_io_mb < e4.total_io_mb


def test_fig10_protocol_armed_spans_and_fanout():
    with obs_hooks.use(Instrumentation()) as obs:
        run = _fig10_tiny("fragpicker")
    for name in ("before", "analysis", "after"):
        (span,) = obs.spans.by_name(f"phase.{name}")
        assert span.duration == pytest.approx(run.phases[name].duration)
        assert run.phases[name].fanout.count > 0
    # the warmup and the co-run defrag phase open no phase span
    assert [s.name for s in obs.spans.spans if s.name.startswith("phase.")] == [
        "phase.before", "phase.analysis", "phase.after"
    ]
    assert run.phases["defrag"].fanout is None
    # defragmentation shifts the fan-out toward one command per syscall
    assert run.phases["after"].fanout.mean < run.phases["before"].fanout.mean
    # analysis is timestamped where the analysis window ended
    (analyze,) = obs.spans.by_name("fragpicker.analyze")
    assert analyze.start == pytest.approx(
        obs.spans.by_name("phase.analysis")[0].end
    )
