"""Shared document-verb wiring used by bench, fleet, slo and replay."""

import argparse
from types import SimpleNamespace

from repro import cli_util
from repro.doc import Comparison, Finding


def _parser():
    parser = argparse.ArgumentParser()
    parser.add_argument("--smoke", action="store_true")
    cli_util.add_document_args(parser, "TEST")
    return parser


def test_document_path_defaults():
    args = _parser().parse_args([])
    assert cli_util.document_path(args, "TEST") == ("full", "TEST_full.json")
    args = _parser().parse_args(["--smoke"])
    assert cli_util.document_path(args, "TEST") == ("smoke", "TEST_smoke.json")
    args = _parser().parse_args(["--smoke", "--label", "ci"])
    assert cli_util.document_path(args, "TEST") == ("ci", "TEST_ci.json")
    args = _parser().parse_args(["--json", "out.json"])
    assert cli_util.document_path(args, "TEST") == ("full", "out.json")
    # bare --json means "the default path" (used by `repro fleet --json`)
    args = _parser().parse_args(["--json"])
    assert cli_util.document_path(args, "TEST") == ("full", "TEST_full.json")


def test_threshold_default_is_shared():
    args = _parser().parse_args([])
    assert args.threshold == cli_util.THRESHOLD == 0.10


def test_run_compare_not_requested():
    args = _parser().parse_args([])
    assert cli_util.run_compare(args, None) is None


def _fake_doc_type(ok):
    comparison = Comparison("a", "b", threshold=0.1, kind="test")
    if not ok:
        comparison.findings.append(Finding(
            figure="f", variant="v", metric="m",
            baseline=1.0, candidate=2.0, change=1.0, regression=True,
        ))
    return SimpleNamespace(
        load=lambda path: {"path": path},
        compare=lambda base, cand, threshold: comparison,
    )


def test_run_compare_exit_codes(capsys):
    args = _parser().parse_args(["--compare", "a.json", "b.json"])
    assert cli_util.run_compare(args, _fake_doc_type(ok=True)) == 0
    assert "test compare" in capsys.readouterr().out
    assert cli_util.run_compare(args, _fake_doc_type(ok=False)) == 1
    args = _parser().parse_args(["--compare", "a.json", "b.json", "--warn-only"])
    assert cli_util.run_compare(args, _fake_doc_type(ok=False)) == 0
