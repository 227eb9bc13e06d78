"""Hierarchical spans and an event ring buffer over virtual time.

Spans are the structural half of the observability plane: a span covers a
window of **simulated** time (the ``now`` floats the stack threads
through every syscall), carries attributes, and nests — a
``fragpicker.defragment`` span contains one ``fragpicker.migrate`` child
per range.  Because time is virtual, callers pass it explicitly::

    span = recorder.start("fragpicker.migrate", now, file=path)
    ...
    recorder.finish(span, now)

Instant happenings (actor steps, frag-check skips, block commands) go
into a bounded ring buffer via :meth:`SpanRecorder.event` so long
experiments cannot grow the log without bound.

Truncation behaviour: both stores are bounded.  Spans past ``max_spans``
are *not* kept (``dropped_spans`` counts them); events past ``max_events``
evict the **oldest** ring entries (``dropped_events`` counts the wraps,
and an attached ``drop_counter`` — ``obs.events_dropped`` when owned by an
:class:`~repro.obs.live.Instrumentation` — surfaces the loss in the
metrics registry, so a run can't silently lose events).  Size the
buffers per run via
``Instrumentation(max_spans=..., max_events=...)``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple


class Span:
    """One named window of virtual time, possibly nested."""

    __slots__ = ("name", "start", "end", "attrs", "parent", "track", "depth")

    def __init__(
        self,
        name: str,
        start: float,
        attrs: Optional[Dict[str, object]] = None,
        parent: Optional["Span"] = None,
        track: str = "main",
    ) -> None:
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs or {}
        self.parent = parent
        self.track = track
        self.depth = 0 if parent is None else parent.depth + 1

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def finished(self) -> bool:
        return self.end is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.start}..{self.end}, depth={self.depth})"


class SpanEvent:
    """One instant event in the ring buffer."""

    __slots__ = ("name", "time", "attrs", "track")

    def __init__(self, name: str, time: float, attrs: Dict[str, object], track: str) -> None:
        self.name = name
        self.time = time
        self.attrs = attrs
        self.track = track


class SpanRecorder:
    """Collects spans (bounded) and events (ring buffer) per track.

    A *track* is one logical timeline — an actor name, usually — so
    concurrent actors nest independently and export as separate rows in
    ``chrome://tracing``.
    """

    def __init__(self, max_spans: int = 100_000, max_events: int = 65_536) -> None:
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self.events: Deque[SpanEvent] = deque(maxlen=max_events)
        self.dropped_spans = 0
        #: events evicted by ring wrap (oldest-first) since the last clear
        self.dropped_events = 0
        #: optional Counter-like sink (``.inc()``) notified on each wrap;
        #: Instrumentation points this at its ``obs.events_dropped`` counter
        self.drop_counter = None
        self._stacks: Dict[str, List[Span]] = {}

    # -- spans ---------------------------------------------------------

    def start(self, name: str, now: float, track: str = "main", **attrs: object) -> Span:
        stack = self._stacks.setdefault(track, [])
        parent = stack[-1] if stack else None
        span = Span(name, now, attrs or None, parent, track)
        stack.append(span)
        return span

    def finish(self, span: Span, now: float) -> Span:
        span.end = max(now, span.start)
        stack = self._stacks.get(span.track, [])
        if span in stack:
            # pop this span and anything left dangling above it
            while stack:
                popped = stack.pop()
                if popped is span:
                    break
                if popped.end is None:
                    popped.end = span.end
                    self._keep(popped)
        self._keep(span)
        return span

    def _keep(self, span: Span) -> None:
        if len(self.spans) < self.max_spans:
            self.spans.append(span)
        else:
            self.dropped_spans += 1

    def adopt(
        self,
        name: str,
        start: float,
        end: float,
        track: str = "main",
        attrs: Optional[Dict[str, object]] = None,
    ) -> Span:
        """Append an already-finished span (a harvested worker span).

        Bypasses the per-track stacks — adopted spans carry no parent
        link — but respects ``max_spans`` bounding and drop accounting
        exactly like locally recorded spans.
        """
        span = Span(name, start, dict(attrs) if attrs else None, None, track)
        span.end = max(end, start)
        self._keep(span)
        return span

    def active(self, track: str = "main") -> Optional[Span]:
        stack = self._stacks.get(track)
        return stack[-1] if stack else None

    # -- events --------------------------------------------------------

    def event(self, name: str, now: float, track: str = "main", **attrs: object) -> None:
        events = self.events
        if len(events) == events.maxlen:
            # the ring wraps: the oldest event is about to be evicted
            self.dropped_events += 1
            if self.drop_counter is not None:
                self.drop_counter.inc()
        events.append(SpanEvent(name, now, attrs, track))

    # -- views ---------------------------------------------------------

    def finished_spans(self) -> List[Span]:
        return [span for span in self.spans if span.finished]

    def by_name(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def tracks(self) -> List[str]:
        seen: Dict[str, None] = {}
        for span in self.spans:
            seen.setdefault(span.track)
        for event in self.events:
            seen.setdefault(event.track)
        return list(seen)

    def clear(self) -> None:
        self.spans.clear()
        self.events.clear()
        self.dropped_spans = 0
        self.dropped_events = 0
        self._stacks.clear()
