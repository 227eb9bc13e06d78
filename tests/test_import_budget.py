"""Import budgets: the modules each entry point may load, in a fresh process.

Every process — each CLI verb, each end-to-end repetition — compiles what
it imports, so a package that re-exports its whole subtree makes every
importer pay for it.  Package names resolve on first access
(:mod:`repro.exports`) and armed-only modules are imported where they are
armed; these rows keep it that way.  The workload rows run the
end-to-end benchmark's own ``setup``/call/``outcome``/``check`` at small
sizes and require that no import moves into the timed call or into the
untimed output check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))
E2E = os.path.join(os.path.dirname(SRC), "benchmarks", "e2e")

#: the simulated stack and the telemetry plane
LAYERS = ("repro.fs", "repro.block", "repro.device", "repro.obs")
#: modules only an armed (export) run needs
ARMED_ONLY = ("repro.obs.export",)
#: a fleet reads a trace (``repro.replay``) only for a ``trace:<path>`` workload
FLEET = ARMED_ONLY + ("repro.replay",)
#: only ``repro run`` checks the paper's claims, after its experiment ran
CLAIMS = ("repro.bench.claims",)
#: a replay builds no defrag tool, workload or SLO plane
REPLAY = ("repro.obs.slo", "repro.core", "repro.tools", "repro.workloads")
#: what an armed obs or fault plane records with: loaded only where a
#: plane is armed, never by the null planes every layer consults
RECORDERS = ("repro.obs.metrics", "repro.obs.spans", "repro.obs.analysis",
             "repro.faults.plan")

#: entry point -> (code, modules it must not load, most repro modules)
BUDGETS = {
    "import-repro": ("import repro", LAYERS, None),
    "import-cli": ("import repro.cli", LAYERS + CLAIMS, 5),
    # every verb, ``repro list`` included, builds the parser first
    "build-parser": (
        "from repro.cli import build_parser; build_parser()", ("repro.obs",) + CLAIMS, 5,
    ),
    "replay-entry": ("from repro.replay import ReplayConfig, run_replay", REPLAY, None),
    # the chunked corpus branch imports repro.par on first use: the
    # engine and multiprocessing cost every replay process ~13 ms
    "replay-without-engine": ("import repro.replay", ("repro.par",), None),
    # the statistics use the standard library; numpy would cost every
    # process ~110 ms and ~12 MiB
    "packages-without-numpy": (
        "import repro, repro.cli, repro.fleet, repro.replay", ("numpy",), None,
    ),
    "fleet-entry": ("from repro.fleet import FleetConfig, FleetSlo, run_fleet", FLEET, None),
    # no SLO monitor attached: the SLO plane stays unloaded
    "fleet-unmonitored": (
        "from repro.fleet import FleetConfig, run_fleet",
        FLEET + ("repro.obs.slo", "repro.fleet.slo"), None,
    ),
    "grid-entry": (
        "from repro.bench.experiments import synthetic_defrag", ARMED_ONLY + CLAIMS, None,
    ),
    # every layer captures the current planes at construction
    "obs-hooks-unarmed": (
        "from repro.obs import hooks; hooks.current()", RECORDERS, None,
    ),
    "faults-hooks-unarmed": (
        "from repro.faults import hooks; hooks.current()", RECORDERS, None,
    ),
}


def _run(code: str) -> object:
    """Run ``code`` in a fresh interpreter; it prints one JSON line last."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def _loaded(modules, prefixes):
    return sorted(m for m in modules
                  if any(m == p or m.startswith(p + ".") for p in prefixes))


@pytest.mark.parametrize("entry", list(BUDGETS))
def test_entry_point_stays_within_budget(entry):
    code, forbidden, most = BUDGETS[entry]
    modules = _run(f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))")
    assert _loaded(modules, forbidden) == [], f"{code!r} loaded modules past its budget"
    if most is not None:
        mine = _loaded(modules, ("repro",))
        assert len(mine) <= most, mine


#: one e2e repetition at test size: setup, the timed call, then the
#: document and its check, with the repro modules loaded after each
_REPETITION = """
import json, sys
sys.path.insert(0, {e2e!r})
import spec
spec.FLEET_VOLUMES = 8
spec.GRID_FILE_MIB = 1
mods = lambda: sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))
workload = spec.WORKLOADS[{name!r}]
call = workload.setup({params!r})
after_setup = mods()
result = call()
after_call = mods()
outcome = workload.outcome(result)
errors = workload.check(outcome)
workload.fingerprint(outcome)
workload.modelled(outcome)
print(json.dumps([after_setup, after_call, mods(), errors]))
"""

#: workload -> the modules its repetition must not load
REPETITIONS = {
    "replay_read": REPLAY + CLAIMS,
    "replay_write": REPLAY + CLAIMS,
    "fleet": FLEET + CLAIMS,
    "fig8_grid": ARMED_ONLY + CLAIMS + RECORDERS,
}

#: workload -> most repro modules loaded after its setup (each process
#: compiles every one of them)
SETUP_MODULES = {
    "replay_read": 43,
    "replay_write": 43,
    "fleet": 65,
    "fig8_grid": 54,
}


@pytest.mark.parametrize("name", list(REPETITIONS))
def test_no_import_moves_into_the_timed_call_or_the_check(name, tmp_path):
    params = {"seed": 7}
    if name.startswith("replay"):
        from repro.replay import TraceProfile, generate_trace

        sys.path.insert(0, E2E)
        try:
            import spec
        finally:
            sys.path.remove(E2E)
        profile = dict(spec.REPLAY_PROFILES[name], ops=2_000)
        params["trace"] = str(tmp_path / "replay.bin")
        generate_trace(params["trace"], TraceProfile(seed=7, **profile))
    after_setup, after_call, after_doc, errors = _run(
        _REPETITION.format(e2e=E2E, name=name, params=params))
    assert errors == []
    assert after_call == after_setup, sorted(set(after_call) - set(after_setup))
    assert after_doc == after_setup, sorted(set(after_doc) - set(after_setup))
    assert _loaded(after_doc, REPETITIONS[name]) == []
    assert len(after_setup) <= SETUP_MODULES[name], after_setup
