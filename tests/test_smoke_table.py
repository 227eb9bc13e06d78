"""Every argv in the CLI smoke table, and every ``python -m repro`` line
of README.md and of the CLI's usage block, parses against the current CLI.

``benchmarks/smoke.py`` runs the verbs only in CI's last job, and nothing
runs the documented commands; parsing them here makes a renamed or
deleted flag fail tier-1 instead.
"""

import importlib.util
import re
import shlex
from pathlib import Path

import pytest

import repro.cli
from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
SMOKE = ROOT / "benchmarks" / "smoke.py"


def _rows():
    spec = importlib.util.spec_from_file_location("smoke", SMOKE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ROWS


ROWS = _rows()


def _documented(source: str, text: str):
    """(id, [argv]) per ``python -m repro ...`` command in ``text``: the
    words after ``repro``, up to a comment or closing backtick, with
    backslash-continued lines joined."""
    text = re.sub(r"\\\n\s*", " ", text)
    commands = {}
    for match in re.finditer(r"python -m repro ([^`#\n]*)", text):
        argv = shlex.split(match.group(1))
        commands[f"{source}: {' '.join(argv)}"] = [argv]
    return list(commands.items())


DOCUMENTED = (_documented("README.md", (ROOT / "README.md").read_text())
              + _documented("cli.py", repro.cli.__doc__))


@pytest.mark.parametrize(
    "runs", [row[1] for row in ROWS] + [runs for _, runs in DOCUMENTED],
    ids=[row[0] for row in ROWS] + [name for name, _ in DOCUMENTED])
def test_row_argv_parses(runs):
    for argv in runs:
        build_parser().parse_args(argv)


def test_misspelled_flag_fails_to_parse():
    runs = ROWS[0][1]
    argv = ["--jsn" if arg == "--json" else arg for arg in runs[0]]
    assert argv != runs[0]
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
