"""Pinned end-to-end benchmark: four workloads, timed per process, split by layer.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --seed 7 --out results.json
    python3 benchmarks/e2e/run.py --workload fleet --seed 3 --seconds 20 --trace 0

Protocol: the seeded inputs are made once per invocation in a temporary
directory under ``benchmarks/e2e/_work``; each workload then runs once
untimed (warm-up), the timed repetitions run round-robin across the
chosen workloads, one fresh single-threaded process at a time, until
``--seconds`` per workload have passed; with ``--trace 1`` each workload
finally runs once more under cProfile for the per-layer split.

Prints every metric with its unit, and as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``), keyed
``<workload>:<metric>`` when more than one workload ran.  Exits 1 if an
output check, a fingerprint or the layer split failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List

import spec
from rollup import TOLERANCE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
EXPECTED = HERE / "expected.json"

#: a repetition that takes longer than this is killed and counted failed
CHILD_TIMEOUT_S = 120

#: single-threaded, hash-stable repetition processes
CHILD_ENV = {
    "PYTHONPATH": str(SRC),
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def spawn(name: str, params: Dict[str, object], profile: bool = False) -> Dict[str, object]:
    """Run one repetition in a fresh process and return its record."""
    command = [sys.executable, str(HERE / "child.py"), name, json.dumps(params)]
    spawned_at = time.monotonic()
    command.append(repr(spawned_at))
    if profile:
        command.append("--profile")
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env={**os.environ, **CHILD_ENV},
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"errors": [f"timed out after {CHILD_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"errors": [f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"]}
    return json.loads(lines[-1])


class Measurement:
    """Every repetition record of one workload."""

    def __init__(self, name: str, params: Dict[str, object], pinned) -> None:
        self.workload = spec.WORKLOADS[name]
        self.params = params
        self.pinned = pinned
        self.warmup: Dict[str, object] = {}
        self.timed: List[Dict[str, object]] = []
        self.profiled: Dict[str, object] = {}

    def spawn(self, profile: bool = False) -> Dict[str, object]:
        return spawn(self.workload.name, self.params, profile)

    @property
    def records(self) -> List[Dict[str, object]]:
        return [r for r in [self.warmup, *self.timed, self.profiled] if r]

    def reference(self) -> str:
        """The fingerprint every repetition must produce."""
        if self.pinned is not None:
            return self.pinned
        seen = Counter(r["fingerprint"] for r in self.records if not r["errors"])
        return seen.most_common(1)[0][0] if seen else ""

    def summary(self) -> Dict[str, object]:
        """The workload's entry in the results document."""
        reference = self.reference()
        failures = []
        failed = 0
        for index, record in enumerate(self.records):
            problems = list(record["errors"])
            if record.get("fingerprint", reference) != reference:
                problems.append(f"fingerprint {record['fingerprint']} != {reference}")
            failed += bool(problems)
            failures += [f"repetition {index}: {problem}" for problem in problems]
        e2e = {}
        for metric in spec.E2E + spec.INFO:
            samples = [r[metric.name] for r in self.timed if metric.name in r]
            e2e[metric.name] = {
                "unit": metric.unit, "better": metric.better, "bound": metric.bound,
                "n": len(samples), **spec.quartiles(samples), "samples": samples,
            }
        profile = self.profiled.get("profile")
        attempted = len(self.records)
        return {
            "why": self.workload.why, "params": self.params,
            "attempted": attempted, "failed": failed,
            "failed_frac": failed / attempted if attempted else 1.0,
            "failures": failures,
            "fingerprint": reference, "pinned": self.pinned,
            "e2e": e2e,
            "per_layer": self._per_layer(profile, e2e["wall_raw_s"]["median"]),
            "split_ok": profile is None or profile["residual_rel"] <= TOLERANCE,
            "profile": profile,
        }

    def _per_layer(self, profile, wall_median: float) -> Dict[str, float]:
        if profile is None:
            return {}
        values: Dict[str, float] = {}
        for layer, row in profile["layers"].items():
            values[f"{layer}.self_share"] = row["self_share"]
            values[f"{layer}.calls_in"] = row["calls_in"]
        values["fs.syscalls"] = profile["fs_syscalls"]
        values["profile_overhead"] = (
            self.profiled["wall_raw_s"] / wall_median if wall_median else 0.0
        )
        values.update(self.profiled["counts"])
        return {metric.name: values[metric.name] for metric in spec.PER_LAYER}


def measure(names, params, pinned, seconds: float, trace: bool) -> Dict[str, Measurement]:
    runs = {name: Measurement(name, params[name], pinned.get(name)) for name in names}
    for run in runs.values():
        run.warmup = run.spawn()
    start = time.monotonic()
    while True:
        for run in runs.values():
            run.timed.append(run.spawn())
        enough = min(len(run.timed) for run in runs.values()) >= spec.MIN_REPS
        if enough and time.monotonic() - start >= seconds * len(runs):
            break
    if trace:
        for run in runs.values():
            run.profiled = run.spawn(profile=True)
    return runs


def show(name: str, result: Dict[str, object]) -> None:
    """Print one workload's metrics."""
    print(f"== {name}: {result['attempted']} attempted, {result['failed']} failed, "
          f"fingerprint {result['fingerprint']}"
          + (" (pinned)" if result["pinned"] else ""))
    for line in result["failures"]:
        print(f"   FAILED {line}")
    print(f"   {'metric':<26}{'unit':<7}{'n':>4}{'median':>12}{'q1':>12}{'q3':>12}")
    for metric, row in result["e2e"].items():
        print(f"   {metric:<26}{row['unit']:<7}{row['n']:>4}{row['median']:>12.4f}"
              f"{row['q1']:>12.4f}{row['q3']:>12.4f}")
    print(f"   {'failed_frac':<26}{'ratio':<7}{result['attempted']:>4}"
          f"{result['failed_frac']:>12.4f}")
    profile = result["profile"]
    if profile is None:
        return
    print(f"   per-layer (one profiled run, {profile['total_s']:.3f} s self time, "
          f"residual {profile['residual_rel']:.1e}):")
    units = {metric.name: metric.unit for metric in spec.PER_LAYER}
    for metric, value in result["per_layer"].items():
        print(f"   {metric:<26}{units[metric]:<7}{value:>16.6g}")
    print("   top self time:")
    for row in profile["top"]:
        print(f"   {row['self_s']:>9.4f} s {row['calls']:>9}  "
              f"{row['layer']:<10}{row['function']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=list(spec.WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED,
                        help=f"input seed (default {spec.DEFAULT_SEED}, the pinned one)")
    parser.add_argument("--seconds", type=float, default=spec.DEFAULT_SECONDS,
                        help=f"timed seconds per workload (default {spec.DEFAULT_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: also profile each workload once (default)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the results document (JSON) here")
    parser.add_argument("--pin", action="store_true",
                        help="store this run's fingerprints as the seed's "
                             "expected ones instead of checking them")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = args.workload or list(spec.WORKLOADS)
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    pinned = {} if args.pin else expected.get(str(args.seed), {})

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        params = {name: spec.WORKLOADS[name].prepare(args.seed, workdir) for name in names}
        runs = measure(names, params, pinned, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another invocation is still using it
            pass

    workloads = {name: run.summary() for name, run in runs.items()}
    for name, result in workloads.items():
        show(name, result)
    attempted = sum(w["attempted"] for w in workloads.values())
    failed = sum(w["failed"] for w in workloads.values())
    correct = failed == 0 and all(w["split_ok"] for w in workloads.values())
    if args.out:
        document = {
            "schema": "repro.e2e-bench/v1", "seed": args.seed,
            "seconds": args.seconds, "trace": bool(args.trace),
            "host": {"python": sys.version.split()[0], "cpus": os.cpu_count()},
            "correct": correct, "attempted": attempted, "failed": failed,
            "workloads": workloads,
        }
        with open(args.out, "w") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.pin and correct:
        expected.setdefault(str(args.seed), {}).update(
            {name: w["fingerprint"] for name, w in workloads.items()})
        EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
        print(f"pinned seed {args.seed} fingerprints in {EXPECTED.name}")

    table = spec.PER_LAYER if args.trace else spec.E2E
    metrics: Dict[str, Dict[str, object]] = {}
    for name, result in workloads.items():
        prefix = f"{name}:" if len(workloads) > 1 else ""
        for metric in table:
            value = (result["per_layer"].get(metric.name, 0.0) if args.trace
                     else result["e2e"][metric.name]["median"])
            metrics[prefix + metric.name] = {"value": value, "unit": metric.unit}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
