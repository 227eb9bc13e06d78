"""E1 — Figure 2: YCSB-A throughput with background defragmentation."""

from repro.bench.experiments import fig2_background_defrag


def test_fig2_background_defrag():
    result = fig2_background_defrag.run()
    print("\n" + result.report())
    e4 = result.runs["e4defrag"]
    fp = result.runs["fragpicker"]
    # e4defrag degrades the co-running workload for its whole run
    assert e4.degradation > 0.03, "e4defrag should visibly degrade YCSB-A"
    # and its disruption lasts far longer than FragPicker's
    assert e4.defrag_elapsed > 2.0 * fp.defrag_elapsed
    # the workload recovers once defragmentation ends
    assert e4.after_ops > 0.7 * e4.before_ops
    assert fp.after_ops > 0.7 * fp.before_ops
    # the timeline actually contains the dip
    assert len(e4.timeline) >= 5
