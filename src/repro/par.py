"""Deterministic fan-out across worker processes.

The stateless heavy runs in this repo — fault campaigns, crash-point
sweeps, the bench suite, corpus generation — are seed-keyed and
decompose into independent shards.  This module executes those shards
on N spawned interpreters while keeping every fingerprinted document
**byte-identical to the serial run**: results are collected in shard
order (never completion order), floats are merged in the same order the
serial code would have produced them, and workers start from scrubbed
process-global state.

:class:`ParallelPlan` sends the shards through a spawn-context
``ProcessPoolExecutor``: one payload in, one result out.  A shard that
raises surfaces as :class:`ShardError` carrying the shard index, and
every already-collected partial result is discarded.  A per-shard
wall-clock timeout degrades gracefully: the straggler is cancelled and
its payload re-executed serially in the parent, counted in the
``par.shard_timeouts`` / ``par.serial_fallbacks`` metrics — work is
never silently dropped.

When the ambient :class:`~repro.obs.hooks.Instrumentation` is armed,
plans **harvest** worker telemetry (:mod:`repro.obs.harvest`): each
shard runs under a fresh child instrumentation — in the worker *and* on
the serial path — whose :class:`TelemetrySnapshot` is merged into the
parent in shard order, so armed ``--workers N`` exports stay
byte-identical to serial and nothing a worker measured is lost.

``workers=None`` everywhere means the legacy serial path — byte-for-byte
the pre-parallel code — so committed baselines and CI stay valid; any
``workers >= 1`` goes through the engine (``--workers 1`` must equal
``--workers 4``, which the determinism tests assert).

Spawn (not fork) is used on every platform: each worker imports the
package fresh, so no parent caches, hook installations, or debug flags
leak in — :func:`reset_worker_state` re-scrubs anyway as a guard against
a future fork-based context.
"""

from __future__ import annotations

import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from .errors import InvalidArgument, ReproError


class ShardError(ReproError):
    """A worker failed while executing one shard.

    Carries the shard index and the worker-side traceback text; pickles
    across the process boundary intact (``__reduce__``).
    """

    def __init__(
        self,
        message: str,
        shard: Optional[int] = None,
        cause_type: Optional[str] = None,
        traceback_text: str = "",
    ) -> None:
        super().__init__(message)
        self.shard = shard
        self.cause_type = cause_type
        self.traceback_text = traceback_text

    def __reduce__(self):
        return (
            type(self),
            (self.args[0], self.shard, self.cause_type, self.traceback_text),
        )


def resolve_workers(workers: Optional[int]) -> Optional[int]:
    """Validate a ``--workers`` value (None = serial path)."""
    if workers is None:
        return None
    if workers < 1:
        raise InvalidArgument("workers must be >= 1 (omit for the serial path)")
    return workers


def reset_worker_state() -> None:
    """Scrub process-global state so a worker's first result matches a
    fresh process.

    Spawn workers are already fresh interpreters; this is the explicit
    contract (and the guard if the start method ever changes): debug
    flags off, the null instrumentation installed, no fault plane armed.
    Device cost-model memos are instance-level and need no scrubbing.
    """
    from .faults import hooks as fault_hooks
    from .fs import extent_map
    from .obs import hooks as obs_hooks

    extent_map.DEBUG_CHECKS = False
    obs_hooks.install(obs_hooks.NULL)
    fault_hooks.install(fault_hooks.NULL)


def _spawn_context():
    import multiprocessing

    return multiprocessing.get_context("spawn")


def _call_shard(
    fn: Callable, index: int, payload: object, spec=None
) -> object:
    """Worker-side wrapper: tag any failure with its shard index.

    With a :class:`~repro.obs.harvest.HarvestSpec`, the shard runs under
    a fresh armed child instrumentation and returns ``(result,
    TelemetrySnapshot)`` — the parent merges the snapshot in shard order
    so a ``--workers N`` run loses no telemetry.
    """
    try:
        if spec is None:
            return fn(payload)
        from .obs import harvest
        from .obs import hooks as obs_hooks

        child = spec.child()
        with obs_hooks.use(child):
            result = fn(payload)
        return result, harvest.capture(child)
    except ShardError:
        raise
    except Exception as exc:
        raise ShardError(
            f"shard {index} failed: {type(exc).__name__}: {exc}",
            shard=index,
            cause_type=type(exc).__name__,
            traceback_text=traceback.format_exc(),
        ) from None


@dataclass
class PlanStats:
    """What one :meth:`ParallelPlan.run` did (mirrored into obs)."""

    shards: int = 0
    parallel: bool = False
    timeouts: int = 0
    serial_fallbacks: int = 0


class ParallelPlan:
    """Shard a seed-keyed work list across spawned workers.

    ``fn`` must be a picklable module-level callable taking one payload;
    payloads must pickle too.  :meth:`run` returns results **in payload
    order** regardless of completion order — the canonical merge that
    makes parallel output order-independent, hence byte-identical to
    serial.
    """

    def __init__(
        self,
        fn: Callable[[object], object],
        payloads: Sequence[object],
        workers: Optional[int] = None,
        timeout_s: Optional[float] = None,
        label: str = "par",
        harvest: bool = True,
    ) -> None:
        self.fn = fn
        self.payloads = list(payloads)
        self.workers = resolve_workers(workers)
        self.timeout_s = timeout_s
        self.label = label
        #: harvest=False opts out of plan-level telemetry capture for
        #: call sites whose shard fn manages its own instrumentation and
        #: returns its own snapshots (the bench suite)
        self.harvest = harvest
        self.stats = PlanStats()

    def run(self) -> List[object]:
        from .obs import hooks as obs_hooks

        payloads = self.payloads
        self.stats = PlanStats(
            shards=len(payloads),
            parallel=self.workers is not None and len(payloads) > 0,
        )
        obs = obs_hooks.current()
        spec = self._harvest_spec(obs)
        if self.workers is None or not payloads:
            results = self._run_serial(payloads, obs, spec)
        else:
            results = self._run_pool(payloads, obs, spec)
        # mirrored on BOTH paths: armed serial and parallel runs must
        # export identical par.* counters (the byte-parity contract)
        self._mirror(obs)
        return results

    def _harvest_spec(self, obs):
        if not (self.harvest and obs.enabled):
            return None
        from .obs import harvest

        return harvest.HarvestSpec.from_obs(obs)

    def _run_serial(self, payloads, obs, spec) -> List[object]:
        if spec is None:
            return [self.fn(payload) for payload in payloads]
        # Same per-shard child-capture-merge dance as the pool path, so
        # serial and parallel armed runs accumulate float sums in the
        # identical grouping and order (byte-identical exports).
        return [
            self._harvested_call(index, payload, obs, spec)
            for index, payload in enumerate(payloads)
        ]

    def _harvested_call(self, index, payload, obs, spec) -> object:
        from .obs import harvest
        from .obs import hooks as obs_hooks

        child = spec.child()
        with obs_hooks.use(child):
            result = self.fn(payload)
        harvest.capture(child).merge_into(
            obs, track_prefix=harvest.shard_track_prefix(index)
        )
        return result

    def _run_pool(self, payloads: List[object], obs, spec) -> List[object]:
        from .obs import harvest

        pool = ProcessPoolExecutor(
            max_workers=min(self.workers, len(payloads)),
            mp_context=_spawn_context(),
            initializer=reset_worker_state,
        )
        results: List[object] = [None] * len(payloads)
        hung = False
        try:
            futures = [
                pool.submit(_call_shard, self.fn, index, payload, spec)
                for index, payload in enumerate(payloads)
            ]
            # Collect strictly in shard order: the merge is independent
            # of which worker finishes first.  Each shard's wait doubles
            # as its wall-clock timeout window.  Snapshot merges happen
            # inside this loop, so they land in shard order too.
            for index, future in enumerate(futures):
                try:
                    value = future.result(timeout=self.timeout_s)
                except (_FuturesTimeout, TimeoutError):
                    future.cancel()
                    hung = True
                    self.stats.timeouts += 1
                    # graceful degradation: re-execute the straggler's
                    # payload serially in the parent — same fn, same
                    # payload, same deterministic result (harvested the
                    # same way, so no telemetry is lost either)
                    if spec is None:
                        results[index] = self.fn(payloads[index])
                    else:
                        results[index] = self._harvested_call(
                            index, payloads[index], obs, spec
                        )
                    self.stats.serial_fallbacks += 1
                    continue
                if spec is None:
                    results[index] = value
                else:
                    results[index], snapshot = value
                    snapshot.merge_into(
                        obs, track_prefix=harvest.shard_track_prefix(index)
                    )
        except ShardError:
            # partial results are discarded: the caller sees only the
            # failure, never a half-merged document
            raise
        finally:
            # a hung worker would block a waiting shutdown forever
            pool.shutdown(wait=not hung, cancel_futures=True)
        return results

    def _mirror(self, obs=None) -> None:
        if obs is None:
            from .obs import hooks as obs_hooks

            obs = obs_hooks.current()
        if not obs.enabled:
            return
        registry = obs.registry
        registry.counter("par.plans").inc()
        registry.counter("par.shards").inc(self.stats.shards)
        if self.stats.timeouts:
            registry.counter("par.shard_timeouts").inc(self.stats.timeouts)
            registry.counter("par.serial_fallbacks").inc(
                self.stats.serial_fallbacks
            )


def run_sharded(
    fn: Callable[[object], object],
    payloads: Sequence[object],
    workers: Optional[int] = None,
    timeout_s: Optional[float] = None,
    label: str = "par",
    harvest: bool = True,
) -> List[object]:
    """One-shot :class:`ParallelPlan` (the common call-site shape)."""
    return ParallelPlan(
        fn, payloads, workers=workers, timeout_s=timeout_s, label=label,
        harvest=harvest,
    ).run()
