"""Deterministic fan-out across worker processes.

Two callers shard seed-keyed work here, because on a 2-core host each
wins at ``--workers 2`` (EXPERIMENTS.md has the pairs): the bench
suite's per-figure shards and the chunked corpus generation of
``replay --generate``.  :func:`run_sharded` sends the payloads through a
spawn-context ``ProcessPoolExecutor`` and collects the results **in
payload order** (never completion order), so the merged output is the
same for every worker count.  A shard that raises surfaces as
:class:`ShardError` carrying the shard index, and every
already-collected partial result is discarded.

``workers=None`` is the serial path: the same function called inline
on each payload in order.  Telemetry is the caller's job: the bench
shard captures its own figure-local instrumentation and the parent
merges the snapshots in shard order (:mod:`repro.obs.harvest`).  When
the ambient instrumentation is armed, every call counts ``par.plans``
and ``par.shards`` on the serial and parallel paths alike, so armed
serial and ``--workers N`` exports carry the same counters.

Spawn (not fork) is used on every platform: each worker imports the
package fresh, so no parent caches, hook installations, or debug flags
leak in — :func:`reset_worker_state` re-scrubs anyway as a guard against
a future fork-based context.
"""

from __future__ import annotations

import traceback
from concurrent.futures import ProcessPoolExecutor
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


def _call_shard(fn: Callable, index: int, payload: object) -> object:
    """Worker-side wrapper: tag any failure with its shard index."""
    try:
        return fn(payload)
    except ShardError:
        raise
    except Exception as exc:
        raise ShardError(
            f"shard {index} failed: {type(exc).__name__}: {exc}",
            shard=index,
            cause_type=type(exc).__name__,
            traceback_text=traceback.format_exc(),
        ) from None


def _run_pool(
    fn: Callable, payloads: List[object], workers: int
) -> List[object]:
    import multiprocessing

    pool = ProcessPoolExecutor(
        max_workers=min(workers, len(payloads)),
        mp_context=multiprocessing.get_context("spawn"),
        initializer=reset_worker_state,
    )
    try:
        futures = [
            pool.submit(_call_shard, fn, index, payload)
            for index, payload in enumerate(payloads)
        ]
        # collect strictly in shard order; a ShardError propagates and
        # the partial results die with this frame
        return [future.result() for future in futures]
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def run_sharded(
    fn: Callable[[object], object],
    payloads: Sequence[object],
    workers: Optional[int] = None,
) -> List[object]:
    """``[fn(p) for p in payloads]``, across ``workers`` spawned processes.

    ``fn`` and the payloads must pickle when ``workers`` is set; the
    serial path (``workers=None``) calls ``fn`` inline, so any callable
    works there.
    """
    from .obs import hooks as obs_hooks

    payloads = list(payloads)
    workers = resolve_workers(workers)
    if workers is None or not payloads:
        results = [fn(payload) for payload in payloads]
    else:
        results = _run_pool(fn, payloads, workers)
    obs = obs_hooks.current()
    if obs.enabled:
        obs.registry.counter("par.plans").inc()
        obs.registry.counter("par.shards").inc(len(payloads))
    return results
