"""E8 — Figure 10: YCSB-C over the LSM store on aged Ext4 / Optane."""

from repro.bench.experiments import fig10_ycsb_rocksdb


def test_fig10_ycsb_rocksdb():
    result = fig10_ycsb_rocksdb.run()
    print("\n" + result.report())
    e4 = result.runs["e4defrag"]
    fp = result.runs["fragpicker"]
    # the database files really were fragmented, and e4defrag fixed them
    assert e4.fragments_before > 20
    assert e4.fragments_after <= 2
    # both tools improve post-defrag throughput
    assert e4.improvement_after() > 0.05
    assert fp.improvement_after() > 0.03
    # the paper's headline trade: FragPicker's post-defrag throughput is
    # within a few percent of e4defrag's...
    gap = 1.0 - fp.phases["after"].ops_per_sec / e4.phases["after"].ops_per_sec
    assert gap < 0.10, f"post-defrag gap {gap:.1%}"
    # ...for a small fraction of the defrag time and I/O
    assert fp.defrag_elapsed < 0.3 * e4.defrag_elapsed
    assert fp.total_io_mb < 0.6 * e4.total_io_mb
    # analysis-phase (eBPF) overhead is small (paper: 1.4%)
    analysis_drop = 1.0 - fp.phases["analysis"].ops_per_sec / fp.phases["before"].ops_per_sec
    assert analysis_drop < 0.05
