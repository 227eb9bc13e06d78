"""One repetition of one workload, in a fresh process (started by run.py).

Usage: ``child.py WORKLOAD PARAMS_JSON SPAWNED_AT [--profile]``

``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before the
spawn (CLOCK_MONOTONIC is system-wide), so ``setup_s`` covers interpreter
start, imports and building the call.  Only the library call is timed;
the output check runs after the timer stops.  Both timed stretches are
also converted to a nominal host speed (``HostSpeed``).  With ``--profile`` the call
runs under cProfile instead and the layer split is returned.  Prints one
JSON object as its last line.
"""

from __future__ import annotations

import json
import math
import os
import resource
import signal
import sys
import time
import traceback

#: how often the host-speed sampler interrupts the timed call
SAMPLE_INTERVAL_S = 0.02
#: iterations of the reference loop one sample times
REFERENCE_ROUNDS = 400
#: the reference loop's time at the nominal host speed (a 2.0 GHz Xeon
#: vCPU): ``wall_s`` is the call's wall time converted to that speed
NOMINAL_SAMPLE_S = 70e-6


def reference_loop() -> None:
    """A fixed pure-Python loop (dict probes, integer work).  It calls no
    ``repro`` code, so no change to the simulator can move its time."""
    table: dict = {}
    for i in range(REFERENCE_ROUNDS):
        key = (i * 40503) & 0x3FF
        table[key] = table.get(key, 0) + i


class HostSpeed:
    """Times the reference loop every ``SAMPLE_INTERVAL_S`` while active.

    The host's speed flips and drifts on scales of seconds, so samples
    taken throughout a timed stretch, rather than next to it, track the
    speed it actually ran at.
    """

    def __init__(self) -> None:
        self.samples: list = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def convert(self, elapsed: float):
        """``(raw, nominal)``: ``elapsed`` less the samples' own time, and
        that converted to the nominal host speed."""
        if not self.samples:
            raise RuntimeError(f"ended within {SAMPLE_INTERVAL_S} s: no host-speed sample")
        sampled = math.fsum(self.samples)
        raw = elapsed - sampled
        return raw, raw * NOMINAL_SAMPLE_S * len(self.samples) / sampled


def run(name: str, params: dict, spawned_at: float, profile: bool) -> dict:
    with HostSpeed() as speed:
        import spec

        workload = spec.WORKLOADS[name]
        call = workload.setup(params)
        elapsed = time.monotonic() - spawned_at
    record = {}
    record["setup_raw_s"], record["setup_s"] = speed.convert(elapsed)
    profiler = None
    if profile:
        import cProfile
        profiler = cProfile.Profile()
        start = time.perf_counter()
        profiler.enable()
        result = call()
        profiler.disable()
        record["wall_raw_s"] = time.perf_counter() - start
    else:
        with HostSpeed() as speed:
            start = time.perf_counter()
            result = call()
            elapsed = time.perf_counter() - start
        record["wall_raw_s"], record["wall_s"] = speed.convert(elapsed)
    record["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outcome = workload.outcome(result)
    record["errors"] = workload.check(outcome)
    record["fingerprint"] = workload.fingerprint(outcome)
    record["counts"] = workload.modelled(outcome)
    if profiler is not None:
        import pstats

        import repro
        from rollup import Rollup

        rollup = Rollup(pstats.Stats(profiler).stats,
                        repro_root=os.path.dirname(repro.__file__),
                        bench_root=os.path.dirname(os.path.abspath(__file__)))
        record["profile"] = rollup.split()
    return record


def main(argv) -> int:
    name, params, spawned_at = argv[0], json.loads(argv[1]), float(argv[2])
    try:
        record = run(name, params, spawned_at, profile="--profile" in argv[3:])
    except Exception:  # the repetition failed: report it, the parent counts it
        record = {"errors": [traceback.format_exc(limit=8)]}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
