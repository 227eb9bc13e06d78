"""Admission and throttling: the fleet yields the device to foreground.

Two independent brakes:

- :class:`TickBudget` — a fleet-wide migration *payload* budget per tick.
  A range of length L must reserve L bytes **before** migrating, so the
  per-tick migrated payload can never exceed the configured budget (the
  strict invariant the SLO report asserts).  Reservation is the unit of
  throttling; the actual device traffic a migration causes (read + write,
  journal, metadata) is accounted separately and reported as a ratio.

- :class:`AdmissionController` — a FIFO queue of triggered volumes and a
  global concurrent-job cap.  A triggered volume that cannot be admitted
  this tick stays queued and is counted *deferred* once per tick it
  waits; the next tick's admission pass re-examines the queue, so a
  deferred volume is re-admitted as soon as a slot frees up.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional


class TickBudget:
    """Fleet-wide migration-bytes-per-tick budget (None = unthrottled)."""

    def __init__(self, per_tick: Optional[int]) -> None:
        self.per_tick = per_tick
        self.spent_this_tick = 0
        self.spent_total = 0
        self.ticks = 0
        #: per-tick history of reserved payload bytes (the report's
        #: budget-compliance evidence)
        self.history: List[int] = []

    def begin_tick(self) -> None:
        """Roll the budget window; banks nothing across ticks."""
        if self.ticks:
            self.history.append(self.spent_this_tick)
        self.spent_this_tick = 0
        self.ticks += 1

    def close(self) -> None:
        """Flush the final tick's spend into the history."""
        if self.ticks and len(self.history) < self.ticks:
            self.history.append(self.spent_this_tick)

    @property
    def remaining(self) -> Optional[int]:
        if self.per_tick is None:
            return None
        return max(0, self.per_tick - self.spent_this_tick)

    def try_reserve(self, nbytes: int) -> bool:
        """Charge ``nbytes`` against this tick, or refuse untouched."""
        if nbytes < 0:
            raise ValueError("cannot reserve negative bytes")
        if self.per_tick is not None and self.spent_this_tick + nbytes > self.per_tick:
            return False
        self.spent_this_tick += nbytes
        self.spent_total += nbytes
        return True


class AdmissionController:
    """Global concurrent-job cap over a FIFO trigger queue."""

    def __init__(self, max_jobs: int) -> None:
        self.max_jobs = max_jobs
        self.queue: Deque[str] = deque()
        self.running: Dict[str, object] = {}
        self.admitted = 0
        self.deferred_ticks = 0
        self.completed = 0
        self.failed = 0

    def pending(self, name: str) -> bool:
        """Is this volume already queued or being defragmented?"""
        return name in self.running or name in self.queue

    def request(self, name: str) -> bool:
        """Queue a triggered volume (idempotent while pending)."""
        if self.pending(name):
            return False
        self.queue.append(name)
        return True

    def promote(self, name: str) -> bool:
        """Move a queued volume to the queue front (SLO gating).

        A volume whose latency SLO fires a burn alert jumps the FIFO so
        the next admission pass services it first.  No-op unless the
        volume is actually queued — gating reorders, it never admits a
        volume the trigger census did not queue.
        """
        if name not in self.queue:
            return False
        self.queue.remove(name)
        self.queue.appendleft(name)
        return True

    def admit(self, make_job: Callable[[str], object]) -> List[object]:
        """Admit queued volumes up to the cap; count the rest deferred."""
        admitted = []
        while self.queue and len(self.running) < self.max_jobs:
            name = self.queue.popleft()
            job = make_job(name)
            self.running[name] = job
            self.admitted += 1
            admitted.append(job)
        self.deferred_ticks += len(self.queue)
        return admitted

    def finish(self, name: str, failed: bool = False) -> None:
        """Release a finished job's slot."""
        self.running.pop(name, None)
        if failed:
            self.failed += 1
        else:
            self.completed += 1
