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

Counting: the capacity check sums a batch's bytes; a completed batch adds
that sum to :class:`DeviceStats` and returns it for the block tracer.  A
batch that raises part-way counts only the commands before the one that
raised (and a torn write's prefix), and the tracer does not count it.
"""

from __future__ import annotations

import abc
from collections import defaultdict
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..block.request import IoOp
from ..block.splitter import DiskRange
from ..block.tracer import TrafficCounter
from ..errors import DeviceError, DeviceIOError, InjectedCrash, TornWriteError
from ..faults import hooks as fault_hooks
from ..obs import hooks as obs_hooks


class DeviceStats(TrafficCounter):
    """Cumulative device-side counters (the blktrace/iotop view)."""

    _fields = TrafficCounter._fields + ("busy_time",)

    def __init__(self, read_bytes: int = 0, write_bytes: int = 0,
                 discard_bytes: int = 0, read_commands: int = 0,
                 write_commands: int = 0, discard_commands: int = 0,
                 busy_time: float = 0.0) -> None:
        super().__init__(read_bytes, write_bytes, discard_bytes,
                         read_commands, write_commands, discard_commands)
        self.busy_time = busy_time   # summed media work (can exceed wall time)


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


_READ = IoOp.READ
_WRITE = IoOp.WRITE


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
        # touches the facades at all, and an armed fault plane is
        # consulted only while it is active
        self._observing = self.obs.enabled
        self._faulting = self.faults.enabled
        # per-command histograms (implies observing)
        self._per_command = self._observing and self.obs.per_command
        self._controller_free = 0.0
        self._link_free = 0.0
        #: per-unit busy timelines; a unit never used reads 0.0 (a
        #: defaultdict, so the hot loop reads it with a plain subscript)
        self._unit_free: Dict[int, float] = defaultdict(float)
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

    def submit(
        self, op: IoOp, ranges: Sequence[DiskRange], start_time: float = 0.0,
    ) -> BatchResult:
        """:meth:`run_batch` as a :class:`BatchResult`."""
        finish_time, service_time, _ = self.run_batch(op, ranges, start_time)
        return BatchResult(start_time, finish_time, service_time, len(ranges))

    def run_batch(
        self, op: IoOp, ranges: Sequence[DiskRange], start_time: float = 0.0,
    ) -> Tuple[float, float, int]:
        """Process a batch of commands issued together at ``start_time``;
        returns ``(finish_time, service_time, bytes)``.

        ``ranges`` are the batch's ``(offset, length)`` commands, all of
        ``op`` (counting: see the module docstring).  The fault plane
        checks the batch with one scan; a fire is enacted when the loop
        reaches its command, and the scan resumes after a fire that does
        not end the batch.
        """
        if not ranges:
            return start_time, 0.0, 0
        capacity = self.capacity
        nbytes = 0
        for offset, length in ranges:
            if offset < 0 or offset + length > capacity:
                raise DeviceError(
                    f"{self.name}: command [{offset}, {offset + length}) "
                    f"beyond capacity {capacity}"
                )
            nbytes += length
        # the compares below pick the operand ``max`` would
        controller = self._controller_free
        if not controller > start_time:
            controller = start_time
        if not self.supports_queuing:
            # one command at a time: the whole batch serializes behind
            # whatever the device is already doing
            if self._link_free > controller:
                controller = self._link_free
            if self._unit_high > controller:
                controller = self._unit_high
        pickup = controller
        batch_finish = start_time
        batch_work = 0.0
        batch_penalty = 0.0
        observing = self._observing
        per_command = self._per_command
        value = op._value_  # skips the enum descriptor in messages/records
        # hot loop: every split request of every syscall lands here, so
        # resolve attribute lookups once per batch
        plan_command = self._plan_command
        unit_free = self._unit_free
        unit_high = self._unit_high
        link_free = self._link_free
        link_rate = self.link_rate
        # the next command a fault fires at (-1: none in this batch)
        fire_at = -1
        faults = self.faults
        if self._faulting and faults.active:
            fire_at, fire = faults.scan("device.submit", value, ranges, 0, start_time)
        torn_lost: Optional[int] = None  # bytes a torn write dropped
        try:
            for index, (offset, length) in enumerate(ranges):
                stall = 0.0
                if index == fire_at:
                    faults.commit(fire)
                    kind = fire.kind
                    if kind == "io_error":
                        raise DeviceIOError(
                            f"{self.name}: injected I/O error on {value} "
                            f"at [{offset}, {offset + length})"
                        )
                    if kind == "crash":
                        raise InjectedCrash(
                            f"{self.name}: injected power-off during {value}"
                        )
                    if kind == "latency":
                        stall = (fire.latency if fire.latency is not None
                                 else self.fault_latency_spike)
                    elif op is IoOp.WRITE and fire.torn_length < length:
                        # torn: only a block-aligned prefix of the write
                        # completes, and the batch ends here
                        torn_lost = length - fire.torn_length
                        if fire.torn_length <= 0:
                            break
                        length = fire.torn_length
                    if torn_lost is None:
                        fire_at, fire = faults.scan(
                            "device.submit", value, ranges, index + 1, start_time
                        )
                controller_time, unit_work, link_bytes, penalty_time = (
                    plan_command(op, offset, length)
                )
                command_begin = controller
                dispatched = controller + controller_time + stall
                controller = dispatched
                command_finish = dispatched
                for unit, media_time in unit_work:
                    unit_start = unit_free[unit]
                    if unit_start < dispatched:
                        unit_start = dispatched
                    unit_end = unit_start + media_time
                    unit_free[unit] = unit_end
                    batch_work += media_time
                    if unit_end > command_finish:
                        command_finish = unit_end
                # every unit ends at or after ``dispatched``, so with any
                # unit work ``command_finish`` is now the latest unit end
                if unit_work and command_finish > unit_high:
                    unit_high = command_finish
                if link_bytes and link_rate:
                    link_start = link_free if link_free > dispatched else dispatched
                    link_free = link_start + link_bytes / link_rate
                    if link_free > command_finish:
                        command_finish = link_free
                if command_finish > batch_finish:
                    batch_finish = command_finish
                batch_work += controller_time + stall
                batch_penalty += penalty_time
                if per_command:
                    # service time: controller pickup to media/link completion
                    self.obs.device_command(
                        self.name, value, command_finish - command_begin
                    )
                if torn_lost is not None:
                    break  # the batch tears here: later commands never ran
        except BaseException:
            ran = ranges[:index]  # the commands before the one that raised
            self.stats.add(op, sum([length for _, length in ran]), len(ran))
            raise
        finally:
            # what ran stays committed when a later command raises
            self._unit_high = unit_high
            self._link_free = link_free
        # a non-queuing device holds every resource until the batch drains
        self._controller_free = controller if self.supports_queuing else batch_finish
        stats = self.stats
        stats.busy_time += batch_work
        if torn_lost is not None:
            # the commands before the torn one, and its surviving prefix
            prefix = ranges[index][1] - torn_lost
            written = sum([length for _, length in ranges[:index]]) + prefix
            stats.add(op, written, index + (prefix > 0))
            raise TornWriteError(
                f"{self.name}: torn write — only {written} bytes of the "
                "batch reached the media",
                bytes_written=written,
            )
        n = len(ranges)
        if op is _READ:
            stats.read_bytes += nbytes
            stats.read_commands += n
        elif op is _WRITE:
            stats.write_bytes += nbytes
            stats.write_commands += n
        else:
            stats.discard_bytes += nbytes
            stats.discard_commands += n
        if observing:
            # wall-clock partition of this batch's latency for attribution:
            # wait behind earlier traffic, then service from pickup to drain;
            # the attribution-only plane (no per-command records) discards
            # busy_until, so it is not computed for it
            self.obs.device_batch(
                self.name, n,
                self.busy_until if per_command else 0.0,
                queue_wait=pickup - start_time,
                service_time=batch_finish - pickup,
                penalty_time=batch_penalty,
            )
        if self._listeners:
            for listener in self._listeners:
                listener(op, ranges, start_time, batch_finish)
        return batch_finish, batch_work, nbytes

    def add_listener(self, listener) -> None:
        """Register ``fn(op, ranges, start, finish)``, called after each
        batch completes (used by tracing)."""
        self._listeners.append(listener)

    def remove_listener(self, listener) -> None:
        """Unregister a listener added with :meth:`add_listener`."""
        self._listeners.remove(listener)

    # -- hooks -----------------------------------------------------------

    @abc.abstractmethod
    def _plan_command(self, op: IoOp, offset: int, length: int) -> CommandPlan:
        """Describe how one ``op`` command over ``[offset, offset +
        length)`` uses controller/units/link."""

    def describe(self) -> Dict[str, object]:
        """Human-readable parameter summary (for reports)."""
        return {"name": self.name, "capacity": self.capacity}
