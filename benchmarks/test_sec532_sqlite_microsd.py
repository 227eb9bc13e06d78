"""E9 — Section 5.3.2: SQLite on Btrfs on the MicroSD card."""

from repro.bench.experiments import sec532_sqlite_microsd


def test_sqlite_microsd():
    result = sec532_sqlite_microsd.run()
    print("\n" + result.report())
    conv = result.runs["btrfs.defragment"]
    fp = result.runs["fragpicker"]
    # defragmentation transforms the select (paper: 29.5s -> 4.4s); the
    # MicroSD's serialized commands make this the largest gain of any device
    assert fp.select_elapsed < 0.4 * result.select_before
    # FragPicker's select is within a few percent of full migration
    assert fp.select_elapsed < 1.05 * conv.select_elapsed
    # it moves only the selected fraction (paper: 163 MB vs 474 MB reads)
    assert fp.defrag_read_mb < 0.5 * conv.defrag_read_mb
    assert fp.defrag_write_mb < 0.5 * conv.defrag_write_mb
    # and the co-running FIO writer fares far better (paper: ~2x)
    assert fp.fio_mbps > 1.5 * conv.fio_mbps
