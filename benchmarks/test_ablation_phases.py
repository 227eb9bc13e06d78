"""E13 — ablation: FragPicker's individual design choices."""

from repro.bench.experiments import ablation_phases


def test_fragpicker_phases():
    result = ablation_phases.run()
    print("\n" + result.report())
    full = result.cells["full"]
    no_check = result.cells["no_check"]
    # every variant defragments well enough to beat the original
    for name, cell in result.cells.items():
        assert cell.throughput_mbps > 1.2 * result.original_mbps, name
    # fragmentation checking trims writes without costing throughput
    assert full.write_mb < no_check.write_mb
    assert full.throughput_mbps > 0.98 * no_check.throughput_mbps
