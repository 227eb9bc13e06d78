"""Causal I/O provenance: per-syscall lineage across fs → block → device.

The aggregate metrics (``block.split_fanout``, the ``attrib.*_s``
partition) prove the paper's mechanism *on average*; this module proves it
*per I/O*, the way TraceTracker reconstructs request lineage across host
and device layers.  When an :class:`~repro.obs.hooks.Instrumentation` is
built with ``provenance=True``, the VFS layer mints one **provenance id**
(*pid*) per layer-crossing syscall and passes it with the syscall's
command batch — through the block scheduler and tracer — down to the
device models, and each layer appends a causal edge to the shared obs
event ring:

==============  ======================================================
event           meaning (one ring entry each)
==============  ======================================================
``prov.syscall``  the root: op, app, path, entry and finish times, and
                  how many block requests the call generated
``prov.submit``   one block-layer batch: command count plus the shared
                  kernel-CPU queue wait and build window
``prov.cmd``      one device command completion: issue / pickup /
                  finish times, parallel units used, discontiguity
                  penalty — the queue-wait vs. service split the
                  attribution counters measure in aggregate
==============  ======================================================

:func:`build_forest` reconstructs the per-syscall command trees from the
ring, and :mod:`repro.obs.critical_path` turns a forest into the critical
path of a whole run, a collapsed-stack flamegraph, and Chrome flow
events.

Because edges live in the bounded event ring, very long armed runs can
wrap it; the ``obs.events_dropped`` counter (and
``SpanRecorder.dropped_events``) reports exactly how many edges were
lost — size the ring via ``Instrumentation(max_events=...)`` when
tracing big runs.

With obs disabled nothing here runs at all: no ids are minted, batches
carry ``pid=0``, and the hot-path boolean sentinels stay untouched.
Recording reads the virtual timeline, it never advances it — armed runs
are bit-identical to disabled runs (guarded by
``test_obs_determinism.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..stats.tables import format_table
from .spans import SpanRecorder

#: ring-event names the recorder emits / the forest parser consumes
SYSCALL_EVENT = "prov.syscall"
SUBMIT_EVENT = "prov.submit"
COMMAND_EVENT = "prov.cmd"


class ProvenanceRecorder:
    """Mints provenance ids and writes causal edges into the event ring.

    One instance lives on an armed :class:`Instrumentation`
    (``obs.provenance``); every layer that captured that facade at
    construction resolved a ``_tracing`` sentinel and calls in only when
    armed.  ``suspend()``/``resume()`` gate minting so setup phases
    (aging, database load) don't flood the ring before the measured
    window starts.
    """

    def __init__(self, spans: SpanRecorder) -> None:
        self._spans = spans
        self.minted = 0
        self.active = True

    # -- lifecycle -----------------------------------------------------

    def suspend(self) -> None:
        """Stop minting (in-flight pids still record their edges)."""
        self.active = False

    def resume(self) -> None:
        self.active = True

    # -- edge recording (called by the layers) -------------------------

    def mint(self) -> int:
        """A fresh provenance id, or 0 while suspended (0 = untracked)."""
        if not self.active:
            return 0
        self.minted += 1
        return self.minted

    def syscall(
        self,
        pid: int,
        op: str,
        *,
        app: str,
        path: str,
        ino: int,
        offset: int,
        size: int,
        start: float,
        end: float,
        requests: int,
    ) -> None:
        """Root edge: one syscall's identity and wall-clock window."""
        self._spans.event(
            SYSCALL_EVENT, end, track="prov.fs",
            pid=pid, op=op, app=app, path=path, ino=ino,
            offset=offset, size=size, start=start, requests=requests,
        )

    def submit(
        self, pid: int, commands: int, time: float,
        cpu_start: float, cpu_done: float,
    ) -> None:
        """Block-layer edge: one batch through the shared kernel CPU."""
        self._spans.event(
            SUBMIT_EVENT, time, track="prov.block",
            pid=pid, commands=commands, cpu_start=cpu_start,
            cpu_done=cpu_done,
        )

    def command(
        self,
        pid: int,
        device: str,
        unit: str,
        op: str,
        offset: int,
        length: int,
        issue: float,
        begin: float,
        end: float,
        units: int,
        penalty: float,
    ) -> None:
        """Device edge: one command's queue-wait/service window."""
        self._spans.event(
            COMMAND_EVENT, end, track="prov.device",
            pid=pid, device=device, unit=unit, op=op, offset=offset,
            length=length, issue=issue, begin=begin, units=units,
            penalty=penalty,
        )


# ----------------------------------------------------------------------
# reconstruction: ring events -> per-syscall command trees
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CommandNode:
    """One device command's provenance record."""

    pid: int
    device: str
    unit: str
    op: str
    offset: int
    length: int
    issue: float    # batch handed to the device
    begin: float    # controller pickup
    end: float      # media/link drain
    units: int      # parallel internal units the command used
    penalty: float  # discontiguity penalty inside the service window

    @property
    def queue_wait(self) -> float:
        return max(0.0, self.begin - self.issue)

    @property
    def service(self) -> float:
        return max(0.0, self.end - self.begin)


@dataclass(frozen=True)
class SubmitNode:
    """One block-layer batch's provenance record."""

    pid: int
    commands: int
    time: float       # syscall handed the batch to the block layer
    cpu_start: float  # shared kernel-CPU timeline picked it up
    cpu_done: float   # every request built and queued

    @property
    def queue_wait(self) -> float:
        return max(0.0, self.cpu_start - self.time)

    @property
    def kernel_cpu(self) -> float:
        return max(0.0, self.cpu_done - self.cpu_start)


@dataclass
class SyscallTree:
    """One syscall's reconstructed lineage: root + batches + commands."""

    pid: int
    op: str = "?"
    app: str = "?"
    path: str = "?"
    ino: int = 0
    offset: int = 0
    size: int = 0
    start: float = 0.0
    end: float = 0.0
    requests: int = 0
    complete: bool = False  # True once the prov.syscall root was seen
    submits: List[SubmitNode] = field(default_factory=list)
    commands: List[CommandNode] = field(default_factory=list)

    @property
    def latency(self) -> float:
        return max(0.0, self.end - self.start)

    @property
    def fanout(self) -> int:
        """Commands this syscall split into (the paper's request count)."""
        return len(self.commands) if self.commands else self.requests

    @property
    def kernel_queue(self) -> float:
        return sum(s.queue_wait for s in self.submits)

    @property
    def kernel_cpu(self) -> float:
        return sum(s.kernel_cpu for s in self.submits)

    @property
    def tail(self) -> Optional[CommandNode]:
        """The critical command: the last one to drain."""
        return max(self.commands, key=lambda c: c.end) if self.commands else None

    @property
    def device_queue(self) -> float:
        """Queue wait of the critical (tail) command."""
        tail = self.tail
        return tail.queue_wait if tail is not None else 0.0

    @property
    def device_service(self) -> float:
        """Service window of the critical (tail) command."""
        tail = self.tail
        return tail.service if tail is not None else 0.0

    def device_windows(self) -> List[Tuple[float, float]]:
        """Merged [begin, end) wall-clock windows covered by commands."""
        if not self.commands:
            return []
        windows = sorted((c.begin, c.end) for c in self.commands)
        merged = [list(windows[0])]
        for begin, end in windows[1:]:
            if begin <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([begin, end])
        return [(b, e) for b, e in merged]

    def describe_tail(self) -> str:
        tail = self.tail
        if tail is None:
            return "(no device commands)"
        return (f"{tail.device}.{tail.op}@{tail.offset}+{tail.length}"
                f" ({tail.units} {tail.unit}{'s' if tail.units != 1 else ''})")


@dataclass
class ProvenanceForest:
    """Every reconstructed syscall tree from one ring's worth of edges."""

    trees: Dict[int, SyscallTree] = field(default_factory=dict)
    #: edges whose root prov.syscall record was lost (ring wrap) or
    #: whose syscall never finished
    orphans: int = 0
    #: ring drops reported by the recorder at parse time
    events_dropped: int = 0

    def complete_trees(self) -> List[SyscallTree]:
        return [t for t in self.trees.values() if t.complete]

    def layer_crossing(self) -> List[SyscallTree]:
        """Complete trees that actually reached the device layer."""
        return [t for t in self.complete_trees() if t.commands]

    def slowest(self, count: int = 10) -> List[SyscallTree]:
        trees = self.complete_trees()
        trees.sort(key=lambda t: (-t.latency, t.pid))
        return trees[:count]

    def table(self, count: int = 10) -> str:
        """Top-N slowest syscalls with their full fan-out breakdown."""
        rows: List[List[object]] = []
        for tree in self.slowest(count):
            rows.append([
                tree.pid, tree.op, tree.app, tree.path,
                tree.latency, tree.fanout,
                tree.kernel_queue + tree.kernel_cpu,
                tree.device_queue, tree.device_service,
                tree.describe_tail(),
            ])
        return format_table(
            ["pid", "op", "app", "path", "latency s", "cmds",
             "kernel s", "dev queue s", "dev service s", "tail command"],
            rows,
        )

    def summary(self) -> Dict[str, object]:
        complete = self.complete_trees()
        crossing = self.layer_crossing()
        return {
            "syscalls": len(complete),
            "layer_crossing": len(crossing),
            "commands": sum(len(t.commands) for t in complete),
            "orphan_edges": self.orphans,
            "events_dropped": self.events_dropped,
            "max_fanout": max((t.fanout for t in complete), default=0),
        }


def build_forest(recorder: SpanRecorder) -> ProvenanceForest:
    """Reconstruct syscall→request→command trees from the event ring.

    Tolerant of ring wrap: command/submit edges whose root record was
    evicted count as ``orphans`` and are excluded from the tables (their
    timing would be incomplete).
    """
    forest = ProvenanceForest(events_dropped=recorder.dropped_events)
    trees = forest.trees
    for event in recorder.events:
        name = event.name
        if name == SYSCALL_EVENT:
            attrs = event.attrs
            pid = attrs["pid"]
            tree = trees.get(pid)
            if tree is None:
                tree = trees[pid] = SyscallTree(pid=pid)
            tree.op = attrs["op"]
            tree.app = attrs["app"]
            tree.path = attrs["path"]
            tree.ino = attrs["ino"]
            tree.offset = attrs["offset"]
            tree.size = attrs["size"]
            tree.start = attrs["start"]
            tree.end = event.time
            tree.requests = attrs["requests"]
            tree.complete = True
        elif name == SUBMIT_EVENT:
            attrs = event.attrs
            pid = attrs["pid"]
            tree = trees.get(pid)
            if tree is None:
                tree = trees[pid] = SyscallTree(pid=pid)
            tree.submits.append(SubmitNode(
                pid=pid, commands=attrs["commands"], time=event.time,
                cpu_start=attrs["cpu_start"], cpu_done=attrs["cpu_done"],
            ))
        elif name == COMMAND_EVENT:
            attrs = event.attrs
            pid = attrs["pid"]
            tree = trees.get(pid)
            if tree is None:
                tree = trees[pid] = SyscallTree(pid=pid)
            tree.commands.append(CommandNode(
                pid=pid, device=attrs["device"], unit=attrs["unit"],
                op=attrs["op"], offset=attrs["offset"],
                length=attrs["length"], issue=attrs["issue"],
                begin=attrs["begin"], end=event.time,
                units=attrs["units"], penalty=attrs["penalty"],
            ))
    forest.orphans = sum(
        len(t.submits) + len(t.commands)
        for t in trees.values() if not t.complete
    )
    return forest
