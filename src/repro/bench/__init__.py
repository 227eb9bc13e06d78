"""Experiment implementations for every table and figure in the paper.

Each module in :mod:`repro.bench.experiments` reproduces one artifact and
returns a result object with the same rows/series the paper reports.
:mod:`repro.bench.claims` holds the paper's shape claims (who wins, by
roughly what factor, where the knees fall), one row each; ``repro run``
prints an experiment's ``report()`` and then its rows checked against
that result, and ``benchmarks/test_claims.py`` checks every row.
"""

from .harness import VariantResult, fresh_fs, measured_variant

__all__ = ["VariantResult", "fresh_fs", "measured_variant"]
