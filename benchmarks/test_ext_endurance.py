"""E14 — extension: flash wear consumed per defragmentation tool."""

from repro.bench.experiments import ext_endurance


def test_endurance():
    result = ext_endurance.run()
    print("\n" + result.report())
    conv = result.cells["conventional"]
    fp = result.cells["fragpicker"]
    # FragPicker programs far fewer flash pages, i.e. burns less lifetime
    assert fp.pages_programmed < 0.75 * conv.pages_programmed
    assert fp.host_write_mb < 0.75 * conv.host_write_mb
