"""Experiment implementations for every table and figure in the paper.

Each module in :mod:`repro.bench.experiments` reproduces one artifact and
returns a result object with the same rows/series the paper reports;
``repro run`` prints each one's ``report()``, and the ``benchmarks/``
paper-shape tests call each ``run()`` and assert the result *shapes*
(who wins, by roughly what factor, where the knees fall).
"""

from .harness import VariantResult, fresh_fs, measured_variant

__all__ = ["VariantResult", "fresh_fs", "measured_variant"]
