"""Discrete-event co-running of several actors over shared storage.

Actors are generator functions.  Each actor owns an
:class:`ActorContext` whose ``now`` it advances after every syscall
(``ctx.now = result.finish_time``) and then ``yield``s.  The engine always
steps the actor with the smallest local time, so the shared device's
``busy_until`` timeline interleaves the actors' traffic first-come
first-served — background defragmentation steals device time from the
foreground workload exactly the way Figures 2 and 10 measure it.

Example::

    def workload(ctx):
        while ctx.now < 30.0:
            result = fs.read(handle, off(), 128 * KIB, now=ctx.now)
            ctx.now = result.finish_time
            ctx.timeline.record(ctx.now)
            yield

    contexts = run_concurrently({"ycsb": workload, "defrag": defrag_actor})
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, Generator, Iterator, Optional

from ..obs import hooks as obs_hooks
from ..stats.timeline import Timeline
from ..types import Record

ActorFn = Callable[["ActorContext"], Generator[None, None, None]]


class ActorContext(Record):
    """Per-actor virtual clock plus a completion timeline."""

    __slots__ = _fields = ("name", "now", "timeline", "finished_at")

    def __init__(self, name: str, now: float = 0.0, timeline: Optional[Timeline] = None,
                 finished_at: Optional[float] = None) -> None:
        self.name = name
        self.now = now
        self.timeline = timeline if timeline is not None else Timeline()
        self.finished_at = finished_at

    def record(self, amount: float = 1.0) -> None:
        self.timeline.record(self.now, amount)


def run_concurrently(
    actors: Dict[str, ActorFn],
    start: float = 0.0,
    until: Optional[float] = None,
    start_times: Optional[Dict[str, float]] = None,
) -> Dict[str, ActorContext]:
    """Run actors to completion, interleaved by smallest-local-time.

    ``start_times`` lets an actor join late (e.g. defragmentation kicking
    in mid-workload).  ``until`` hard-stops any actor whose clock passes
    it.  Returns each actor's context (clock + timeline).
    """
    contexts: Dict[str, ActorContext] = {}
    heap = []
    counter = itertools.count()  # tie-breaker for equal times
    generators: Dict[str, Iterator[None]] = {}
    for name, fn in actors.items():
        t0 = start if start_times is None else start_times.get(name, start)
        ctx = ActorContext(name=name, now=t0)
        contexts[name] = ctx
        generators[name] = fn(ctx)
        heapq.heappush(heap, (ctx.now, next(counter), name))
    obs = obs_hooks.current()
    while heap:
        _, _, name = heapq.heappop(heap)
        ctx = contexts[name]
        if until is not None and ctx.now >= until:
            ctx.finished_at = ctx.now
            continue
        step_start = ctx.now
        try:
            next(generators[name])
        except StopIteration:
            ctx.finished_at = ctx.now
            if obs.enabled:
                obs.event("actor.finish", ctx.now, track=name)
            continue
        if obs.enabled:
            obs.actor_step(name, step_start, ctx.now)
        heapq.heappush(heap, (ctx.now, next(counter), name))
    return contexts
