"""FragPicker (SOSP 2021) reproduction.

A complete, simulated modern-storage stack — device models with the
internal mechanisms the paper analyses, a block layer with request
splitting, Ext4/F2FS/Btrfs-flavoured filesystems — plus FragPicker itself,
the conventional defragmenters it is compared against, and the paper's
workloads and experiments.

Quickstart::

    from repro import make_device, make_filesystem, FragPicker
    from repro.workloads import make_paper_synthetic_file, sequential_read

    fs = make_filesystem("ext4", make_device("optane"))
    now = make_paper_synthetic_file(fs, "/data", size=33 * 1024 * 1024)
    picker = FragPicker(fs)
    with picker.monitor(apps={"bench"}) as mon:
        now, before = sequential_read(fs, "/data", now=now)
    report = picker.defragment(mon.records, paths=["/data"], now=now)
    now, after = sequential_read(fs, "/data", now=report.finished_at)
"""

from .exports import lazy_exports

__version__ = "1.0.0"

#: every name resolves on first access (see :mod:`repro.exports`), so
#: ``import repro`` loads none of the stack
_EXPORTS = {
    "BLOCK_SIZE": "constants",
    "KIB": "constants",
    "MIB": "constants",
    "GIB": "constants",
    "READAHEAD_SIZE": "constants",
    "STRIDE_SIZE": "constants",
    "make_device": "device",
    "make_filesystem": "fs",
    "fiemap": "fs",
    "fragment_count": "fs",
    "FragPicker": "core",
    "FragPickerConfig": "core",
    "DefragReport": "core",
    "e4defrag": "tools",
    "btrfs_defragment": "tools",
    "f2fs_defrag": "tools",
    "make_conventional": "tools",
    "Fstrim": "tools",
    "SyscallMonitor": "trace",
    "run_concurrently": "sim",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS, eager=["__version__"])
