"""Storage device base class.

A device receives a *batch* of commands — all the commands one system call
was split into, submitted together — and returns when the batch completes.
Synchronous syscall semantics (the caller resumes only when every split
request finishes, Section 2.2 of the paper) fall out of batch completion.

Timing model (three resource classes):

- **controller** — command processing is serial (the in-storage CPU the
  paper says request splitting overloads).  Every command pays a dispatch
  cost on a single controller timeline.
- **internal units** — banks/channels execute media work in parallel; each
  unit has its own busy timeline.  Queuing devices (NCQ/NVMe) therefore
  overlap commands from *different* submitters too — a co-running
  defragmenter and a foreground workload share the device realistically.
  Non-queuing devices (MicroSD, HDD) expose a single unit, so everything
  serializes, which is exactly their fragmentation pathology.
- **link** — host interface transfer is serial per byte (SATA/PCIe cap).

Subclasses describe each command via :meth:`_plan_command`; the base class
does the timeline bookkeeping.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..block.request import IoCommand, IoOp
from ..block.tracer import TrafficCounter
from ..errors import DeviceError, DeviceIOError, InjectedCrash, TornWriteError
from ..faults import hooks as fault_hooks
from ..obs import hooks as obs_hooks


@dataclass
class DeviceStats(TrafficCounter):
    """Cumulative device-side counters (the blktrace/iotop view)."""

    busy_time: float = 0.0   # summed media work (can exceed wall time)


class CommandPlan(NamedTuple):
    """How one command uses the device's resources.

    Attributes:
        controller_time: serial dispatch cost.
        unit_work: (unit id, media time) pairs; units run in parallel
            with each other, serially within themselves.
        link_bytes: bytes crossing the host interface.
        penalty_time: the slice of the media work charged purely for
            discontiguity (HDD seek + rotation, MicroSD mapping-cache
            misses) — reported separately for latency attribution.
    """

    controller_time: float
    unit_work: Tuple[Tuple[int, float], ...] = ()
    link_bytes: int = 0
    penalty_time: float = 0.0


def extend_sums(sums: list, n: int, step: float) -> None:
    """Grow a repeated-addition prefix table so ``sums[n]`` is valid.

    ``sums[k]`` is the float produced by ``k`` successive ``+= step``
    additions starting from 0.0 — bit-identical to the accumulation
    loops the batch planners replaced (``k * step`` rounds differently),
    which the pinned virtual-time baselines require.
    """
    while len(sums) <= n:
        sums.append(sums[-1] + step)


class BatchResult(NamedTuple):
    """Outcome of submitting one command batch."""

    start_time: float
    finish_time: float
    service_time: float   # summed media work of the batch
    commands: int

    @property
    def latency(self) -> float:
        return self.finish_time - self.start_time


#: builds a :class:`BatchResult` from a 4-tuple without the generated
#: keyword-parsing ``__new__`` (one per batch on the hot path)
_batch_result = tuple.__new__


class StorageDevice(abc.ABC):
    """Abstract analytic storage device."""

    #: Whether the device accepts multiple outstanding commands (NCQ/NVMe
    #: queues).  MicroSD/eMMC-class devices do not (Section 2.2).
    supports_queuing: bool = True

    #: Host interface rate, bytes/sec (None = never the bottleneck).
    link_rate: float = None

    #: Characteristic duration of an injected latency spike (an internal
    #: retry / housekeeping pause), used when a fault rule names none.
    #: Models override this with their own pathology.
    fault_latency_spike: float = 0.010

    #: What this model's parallel internal units are called in provenance
    #: records (flash channels, Optane banks, ...); purely descriptive.
    provenance_unit: str = "unit"

    def __init__(self, name: str, capacity: int) -> None:
        if capacity <= 0:
            raise DeviceError("capacity must be positive")
        self.name = name
        self.capacity = capacity
        self.stats = DeviceStats()
        self.obs = obs_hooks.current()
        #: fault plane (captured at construction; a null object unless a
        #: FaultPlan is installed — see repro.faults)
        self.faults = fault_hooks.current()
        # pre-resolved sentinels: with null planes the hot loop never
        # touches the facades at all
        self._observing = self.obs.enabled
        self._faulting = self.faults.enabled
        # per-command histograms; only consulted inside observing branches
        self._per_command = self._observing and self.obs.per_command
        # causal tracing armed; only consulted inside observing branches
        self._tracing = self._observing and self.obs.provenance is not None
        self._controller_free = 0.0
        self._link_free = 0.0
        self._unit_free: Dict[int, float] = {}
        #: max of ``_unit_free``: unit timelines only grow, so a running
        #: high-water mark replaces a scan in ``busy_until``
        self._unit_high = 0.0
        self._listeners: List = []

    # -- timeline queries --------------------------------------------------

    @property
    def busy_until(self) -> float:
        """Latest time any resource is committed.

        Informational on queuing devices; on non-queuing ones the next
        batch starts here.
        """
        return max(self._controller_free, self._link_free, self._unit_high)

    # -- submission ------------------------------------------------------

    def submit(self, commands: Sequence[IoCommand], start_time: float = 0.0) -> BatchResult:
        """Process a batch of commands issued together at ``start_time``.

        The fault plane checks the batch with one scan; a fire is enacted
        when the loop reaches its command, and the scan resumes after a
        fire that does not end the batch.  The stats count the commands
        that ran even when the batch raises part-way.
        """
        if not commands:
            return _batch_result(BatchResult, (start_time, start_time, 0.0, 0))
        capacity = self.capacity
        for command in commands:
            if command.offset < 0 or command.offset + command.length > capacity:
                raise DeviceError(
                    f"{self.name}: command [{command.offset}, "
                    f"{command.offset + command.length}) beyond capacity {capacity}"
                )
        if not self.supports_queuing:
            # one command at a time: the whole batch serializes behind
            # whatever the device is already doing
            controller = max(start_time, self.busy_until)
        else:
            controller = max(start_time, self._controller_free)
        pickup = controller
        batch_finish = start_time
        batch_work = 0.0
        batch_penalty = 0.0
        observing = self._observing
        per_command = self._per_command
        tracing = self._tracing
        # hot loop: every split request of every syscall lands here, so
        # resolve attribute lookups once per batch
        plan_command = self._plan_command
        unit_free = self._unit_free
        unit_get = unit_free.get
        unit_high = self._unit_high
        link_free = self._link_free
        link_rate = self.link_rate
        # the next command a fault fires at (-1: none in this batch)
        fire_at = -1
        if self._faulting:
            faults = self.faults
            fire_at, fire = faults.scan("device.submit", commands, 0, start_time)
        torn_lost: Optional[int] = None  # bytes a torn write dropped
        # batches are single-op in practice: count the first command's op
        # in locals and add it to the stats once, in the finally below
        lead = commands[0].op
        lead_bytes = lead_n = other_bytes = 0
        try:
            for index, command in enumerate(commands):
                stall = 0.0
                if index == fire_at:
                    faults.commit(fire)
                    kind = fire.kind
                    if kind == "io_error":
                        raise DeviceIOError(
                            f"{self.name}: injected I/O error on {command.op._value_} "
                            f"at [{command.offset}, {command.offset + command.length})"
                        )
                    if kind == "crash":
                        raise InjectedCrash(
                            f"{self.name}: injected power-off during {command.op._value_}"
                        )
                    if kind == "latency":
                        stall = (fire.latency if fire.latency is not None
                                 else self.fault_latency_spike)
                    elif command.op is IoOp.WRITE and fire.torn_length < command.length:
                        # torn: only a block-aligned prefix of the write
                        # completes, and the batch ends here
                        torn_lost = command.length - fire.torn_length
                        if fire.torn_length <= 0:
                            break
                        command = command._replace(length=fire.torn_length)
                    if torn_lost is None:
                        fire_at, fire = faults.scan(
                            "device.submit", commands, index + 1, start_time
                        )
                plan = plan_command(command)
                command_begin = controller
                dispatched = controller + plan.controller_time + stall
                controller = dispatched
                command_finish = dispatched
                for unit, media_time in plan.unit_work:
                    unit_start = unit_get(unit, 0.0)
                    if unit_start < dispatched:
                        unit_start = dispatched
                    unit_end = unit_start + media_time
                    unit_free[unit] = unit_end
                    batch_work += media_time
                    if unit_end > command_finish:
                        command_finish = unit_end
                    if unit_end > unit_high:
                        unit_high = unit_end
                if plan.link_bytes and link_rate:
                    link_start = link_free if link_free > dispatched else dispatched
                    link_free = link_start + plan.link_bytes / link_rate
                    if link_free > command_finish:
                        command_finish = link_free
                if command_finish > batch_finish:
                    batch_finish = command_finish
                if command.op is lead:
                    lead_bytes += command.length
                    lead_n += 1
                else:
                    other_bytes += command.length
                    self.stats.add(command.op, command.length)
                batch_work += plan.controller_time + stall
                batch_penalty += plan.penalty_time
                if observing:
                    if per_command:
                        # service time: controller pickup to media/link completion
                        # ``_value_`` skips the enum descriptor on this per-command path
                        self.obs.device_command(
                            self.name, command.op._value_, command_finish - command_begin
                        )
                    if tracing and command.pid:
                        # causal edge: syscall -> this command's completion,
                        # with the queue-wait/service split and the model's
                        # parallelism + discontiguity penalty
                        self.obs.provenance.command(
                            command.pid, self.name, self.provenance_unit,
                            command.op._value_, command.offset, command.length,
                            start_time, command_begin, command_finish,
                            len(plan.unit_work), plan.penalty_time,
                        )
                if torn_lost is not None:
                    break  # the batch tears here: later commands never ran
        finally:
            # what ran stays committed when a later command raises
            self._unit_high = unit_high
            self._link_free = link_free
            if lead_n:
                self.stats.add(lead, lead_bytes, lead_n)
        self._controller_free = controller
        if not self.supports_queuing:
            # hold every resource until the batch drains
            self._controller_free = batch_finish
        self.stats.busy_time += batch_work
        if torn_lost is not None:
            done_bytes = lead_bytes + other_bytes
            raise TornWriteError(
                f"{self.name}: torn write — only {done_bytes} bytes of the "
                "batch reached the media",
                bytes_written=done_bytes,
            )
        if observing:
            # wall-clock partition of this batch's latency for attribution:
            # wait behind earlier traffic, then service from pickup to drain;
            # the attribution-only plane (no per-command records) discards
            # busy_until, so it is not computed for it
            self.obs.device_batch(
                self.name, len(commands),
                self.busy_until if per_command else 0.0,
                queue_wait=pickup - start_time,
                service_time=batch_finish - pickup,
                penalty_time=batch_penalty,
            )
        if self._listeners:
            for listener in self._listeners:
                listener(commands, start_time, batch_finish)
        return _batch_result(
            BatchResult, (start_time, batch_finish, batch_work, len(commands))
        )

    def add_listener(self, listener) -> None:
        """Register ``fn(commands, start, finish)`` (used by tracing)."""
        self._listeners.append(listener)

    def remove_listener(self, listener) -> None:
        """Unregister a listener added with :meth:`add_listener`."""
        self._listeners.remove(listener)

    # -- hooks -----------------------------------------------------------

    @abc.abstractmethod
    def _plan_command(self, command: IoCommand) -> CommandPlan:
        """Describe how one command uses controller/units/link."""

    def describe(self) -> Dict[str, object]:
        """Human-readable parameter summary (for reports)."""
        return {"name": self.name, "capacity": self.capacity}
