"""E16 — extension: defragmentation as a scheduled routine (Section 2.4)."""

from repro.bench.experiments import ext_recurrence


def test_recurring_defrag():
    result = ext_recurrence.run()
    print("\n" + result.report())
    e4 = result.runs["e4defrag"]
    fp = result.runs["fragpicker"]
    # the routine compounds: FragPicker's cumulative writes and wear are
    # a fraction of the conventional tool's
    assert fp.total_write_mb < 0.6 * e4.total_write_mb
    assert fp.pages_programmed < 0.7 * e4.pages_programmed
    # at comparable read performance after the final cycle
    assert fp.final_grep_cost < 1.15 * e4.final_grep_cost
    # FragPicker's later cycles cost less than its first (only the newly
    # churned data needs migrating again)
    assert fp.per_cycle_write_mb[-1] < fp.per_cycle_write_mb[0]
