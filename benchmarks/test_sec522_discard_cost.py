"""E7 — Section 5.2.2: discard (fstrim) cost before/after FragPicker."""

from repro.bench.experiments import sec522_discard_cost


def test_discard_cost():
    result = sec522_discard_cost.run()
    print("\n" + result.report())
    # deleting the fragmented file costs many discard commands; the
    # defragmented file trims in a fraction of the time (paper: 16.6 ->
    # 8.485 s/GB)
    assert result.cost["fragpicker"] < 0.6 * result.cost["original"]
    assert result.commands["fragpicker"] < 0.2 * result.commands["original"]
