"""Event timelines and windowed throughput (the Figure 2 / Figure 10 view).

A :class:`Timeline` collects ``(virtual_time, amount)`` completion events —
e.g. one event per finished YCSB operation — and can be reduced to
operations-per-second over fixed windows, which is exactly how the paper
plots co-running application performance while a defragmenter works in the
background.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..types import Record


class Timeline(Record):
    """Ordered completion events ``(time, amount)``."""

    __slots__ = _fields = ("events",)

    def __init__(self, events: Optional[List[Tuple[float, float]]] = None) -> None:
        self.events = events if events is not None else []

    def record(self, time: float, amount: float = 1.0) -> None:
        self.events.append((time, amount))

    @property
    def duration(self) -> float:
        if not self.events:
            return 0.0
        return self.events[-1][0] - self.events[0][0]

    def total(self) -> float:
        return sum(amount for _, amount in self.events)

    def rate(self) -> float:
        """Mean events/sec over the whole timeline."""
        if self.duration <= 0:
            return 0.0
        return self.total() / self.duration

    def between(self, start: float, end: float) -> "Timeline":
        return Timeline([(t, a) for t, a in self.events if start <= t < end])


class Series(Record):
    """A named sampled curve: monotone ``(time, value)`` points.

    Timelines hold *completion events* (amounts to be rate-reduced);
    a Series holds *readings* — fragmentation scores, free-run counts —
    sampled over virtual time, e.g. by
    :class:`repro.obs.sampler.FragmentationSampler`.
    """

    __slots__ = _fields = ("name", "times", "values")

    def __init__(self, name: str, times: Optional[List[float]] = None,
                 values: Optional[List[float]] = None) -> None:
        self.name = name
        self.times = times if times is not None else []
        self.values = values if values is not None else []

    def record(self, time: float, value: float) -> None:
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    @property
    def last(self) -> float:
        return self.values[-1] if self.values else 0.0

    def samples(self) -> List[Tuple[float, float]]:
        return list(zip(self.times, self.values))

    def decimate(self) -> None:
        """Drop every other interior sample (keeps first and last)."""
        if len(self.times) < 4:
            return
        keep = [0] + list(range(1, len(self.times) - 1, 2)) + [len(self.times) - 1]
        self.times = [self.times[i] for i in keep]
        self.values = [self.values[i] for i in keep]

    def summary(self) -> dict:
        if not self.values:
            return {"count": 0, "first": 0.0, "last": 0.0, "min": 0.0, "max": 0.0}
        return {
            "count": len(self.values),
            "first": self.values[0],
            "last": self.values[-1],
            "min": min(self.values),
            "max": max(self.values),
        }

    def to_dict(self) -> dict:
        return {"name": self.name, "samples": [list(p) for p in self.samples()]}


def windowed_throughput(
    timeline: Timeline, window: float, start: float = 0.0, end: float = None
) -> List[Tuple[float, float]]:
    """Reduce a timeline to ``(window_center, amount_per_second)`` samples."""
    if not timeline.events and end is None:
        return []
    if end is None:
        end = timeline.events[-1][0]
    samples = []
    t = start
    events = sorted(timeline.events)
    idx = 0
    while t < end:
        hi = t + window
        amount = 0.0
        while idx < len(events) and events[idx][0] < hi:
            if events[idx][0] >= t:
                amount += events[idx][1]
            idx += 1
        samples.append((t + window / 2.0, amount / window))
        t = hi
    return samples


def mean_rate(samples: Sequence[Tuple[float, float]]) -> float:
    """Average of windowed throughput samples."""
    if not samples:
        return 0.0
    return sum(v for _, v in samples) / len(samples)
