"""Conventional defragmentation tools (the paper's baselines) and fstrim.

- :func:`e4defrag` — Ext4's tool: full-file migration into a donor area,
  observed by the paper to read fragmented data in 4 KiB I/Os.
- :func:`btrfs_defragment` — Btrfs's tool: full-file CoW rewrite, with the
  optional extent-size threshold (``-t``, "Conv.-T" in Figure 8c).
- :func:`f2fs_defrag` — the paper's stand-in for F2FS (which lacks a
  user-friendly file-level tool): full-file rewrite with IPU disabled.
- :class:`Fstrim` — discards free space, one command per free run.
"""

from ..exports import lazy_exports

_EXPORTS = {
    "ConventionalDefragmenter": "conventional",
    "e4defrag": "conventional",
    "btrfs_defragment": "conventional",
    "f2fs_defrag": "conventional",
    "make_conventional": "conventional",
    "Fstrim": "fstrim",
    "FstrimResult": "fstrim",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
