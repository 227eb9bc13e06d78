"""Every argv in the CLI smoke table parses against the current CLI.

``benchmarks/smoke.py`` runs the verbs only in CI's last job; parsing its
rows here makes a renamed or deleted flag fail tier-1 instead.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.cli import build_parser

SMOKE = Path(__file__).resolve().parent.parent / "benchmarks" / "smoke.py"


def _rows():
    spec = importlib.util.spec_from_file_location("smoke", SMOKE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ROWS


ROWS = _rows()


@pytest.mark.parametrize("runs", [row[1] for row in ROWS], ids=[row[0] for row in ROWS])
def test_row_argv_parses(runs):
    for argv in runs:
        build_parser().parse_args(argv)


def test_misspelled_flag_fails_to_parse():
    runs = ROWS[0][1]
    argv = ["--jsn" if arg == "--json" else arg for arg in runs[0]]
    assert argv != runs[0]
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
