"""The claims evaluator (:mod:`repro.bench.claims`) on hand-built results.

No experiment runs here: ``benchmarks/test_claims.py`` checks every row
against real runs.  These tests pin the evaluator itself (each relation
at its bound, fan-out, paths that name nothing) and that every row is
reachable from ``repro run`` and printed in EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from pathlib import Path
from types import SimpleNamespace as NS

import pytest

from repro.bench.claims import CLAIMS, RELATIONS, Claim, evaluate, render
from repro.cli import EXPERIMENTS

EXPERIMENTS_MD = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"

#: relation -> (a value that just holds, one that just fails) against 2.0
BOUND = 2.0
JUST = {
    "<": (math.nextafter(BOUND, -math.inf), BOUND),
    "<=": (BOUND, math.nextafter(BOUND, math.inf)),
    ">": (math.nextafter(BOUND, math.inf), BOUND),
    ">=": (BOUND, math.nextafter(BOUND, -math.inf)),
    "==": (BOUND, math.nextafter(BOUND, math.inf)),
}


def _claim(check: str) -> Claim:
    return Claim("fig2", {}, "E0", "§0", "a test claim", "—", check)


@pytest.mark.parametrize("relation", sorted(RELATIONS))
@pytest.mark.parametrize("rhs", ["0.5 * b", "b", "2.0"])
def test_relation_holds_just_inside_and_fails_at_or_past_the_bound(relation, rhs):
    holds, fails = JUST[relation]
    for value, ok in ((holds, True), (fails, False)):
        result = NS(a=value, b=BOUND / 0.5 if rhs.startswith("0.5") else BOUND)
        (outcome,) = evaluate(_claim(f"a {relation} {rhs}"), result)
        assert outcome.ok is ok, (value, relation, rhs)
        assert outcome.key == ""


def test_ours_is_a_ratio_to_a_path_and_the_value_against_a_number():
    result = NS(a=3.0, b=4.0)
    (against_path,) = evaluate(_claim("a < 0.75 * b"), result)
    (against_number,) = evaluate(_claim("a > 2.5"), result)
    assert against_path.ours == 0.75 and against_path.ok is False
    assert against_number.ours == 3.0 and against_number.ok is True
    assert _claim("a < 0.75 * b").bound == "< 0.75×"
    assert _claim("a < b").bound == "< 1×"
    assert _claim("a > -0.4").bound == "> -0.4"


@pytest.mark.parametrize("value,cell", [(3.089e-13, "0"), (1e-3, "0.001")])
def test_float_noise_prints_as_zero_but_is_checked_exactly(value, cell):
    (outcome,) = evaluate(_claim("a < 0.05"), NS(a=value))
    assert outcome.ours == value and outcome.ok
    row = render("fig2", {}, [outcome]).splitlines()[-1]
    assert row.split(" | ")[2] == cell


def test_a_fanned_out_row_fails_on_the_one_element_that_breaks():
    result = NS(cells={"a": NS(x=1.0), "b": NS(x=3.0), "c": NS(x=1.5)}, base=2.0)
    outcomes = evaluate(_claim("cells.*.x < base"), result)
    assert [(o.key, o.ok) for o in outcomes] == [("a", True), ("b", False), ("c", True)]


def test_two_fan_outs_pair_element_by_element():
    result = NS(z=[NS(w=1.0), NS(w=5.0)], u=[NS(w=4.0), NS(w=4.0)])
    outcomes = evaluate(_claim("z.*.w < 0.6 * u.*.w"), result)
    assert [(o.key, o.ok, o.ours) for o in outcomes] == [("0", True, 0.25), ("1", False, 1.25)]


def test_paths_call_methods_index_lists_and_read_int_keys():
    result = NS(run=NS(gain=lambda: 0.2), curve={4096: 3.0}, seq=[1.0, 9.0])
    assert evaluate(_claim("run.gain > 0.1"), result)[0].ok
    assert evaluate(_claim("curve.4096 == 3.0"), result)[0].ok
    assert evaluate(_claim("seq.-1 > 8 * seq.0"), result)[0].ok


@pytest.mark.parametrize("check", [
    "missing < 1",            # no such attribute
    "cells.nope.x < 1",       # no such key
    "seq.5 < 1",              # no such index
    "empty.* < 1",            # a fan-out over nothing
    "cells.*.x < 2 * seq.*",  # sides of different widths
    "a <> 1",                 # no such relation
])
def test_a_path_that_names_nothing_raises(check):
    result = NS(cells={"a": NS(x=1.0)}, empty={}, seq=[1.0, 2.0], a=1.0)
    with pytest.raises((AttributeError, KeyError, IndexError, ValueError)):
        evaluate(_claim(check), result)


def test_every_row_names_a_repro_run_experiment_and_its_keywords():
    for claim in CLAIMS:
        assert claim.experiment in EXPERIMENTS, claim.text
        assert set(claim.on) <= set(EXPERIMENTS[claim.experiment][2]), claim.text
        assert claim.check.split()[1] in RELATIONS, claim.text


def test_every_row_is_printed_in_experiments_md():
    lines = EXPERIMENTS_MD.read_text().splitlines()
    for claim in CLAIMS:
        cells = (f" | {claim.paper} | ", f" | {claim.bound} | ")
        assert any(line.startswith(f"| {claim.text}") and all(c in line for c in cells)
                   for line in lines), claim.text
