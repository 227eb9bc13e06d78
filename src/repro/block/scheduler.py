"""Host-side block scheduler: kernel cost + submission to the device.

Charges the per-request kernel overhead (bio/request/command construction,
completion handling — the cost the paper says request splitting multiplies
and that dominates on Optane) and dispatches the batch to the device.

A batch is counted from the one byte sum the device returns, by the device
and then the tracer; one that raises is not traced (the device alone counts
what of it ran).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

from .request import IoOp
from .splitter import DiskRange
from .tracer import BlockTracer
from ..errors import DeviceIOError, InjectedCrash
from ..faults import hooks as fault_hooks
from ..faults.hooks import BLOCK_SITE
from ..obs import hooks as obs_hooks

if TYPE_CHECKING:  # avoid a block <-> device import cycle at runtime
    from ..device.base import StorageDevice


class SubmitResult(NamedTuple):
    """What the caller (VFS) learns about one submitted batch."""

    finish_time: float
    latency: float
    commands: int
    kernel_time: float
    device_time: float


class BlockScheduler:
    """Per-request kernel accounting in front of a single device."""

    def __init__(
        self,
        device: "StorageDevice",
        kernel_overhead_per_request: float = 0.000003,
    ) -> None:
        self.device = device
        self.kernel_overhead_per_request = kernel_overhead_per_request
        self.tracer = BlockTracer()
        self.obs = obs_hooks.current()
        self.faults = fault_hooks.current()
        # pre-resolved sentinels so the null-plane submit path skips
        # facade dispatch entirely
        self._observing = self.obs.enabled
        self._faulting = self.faults.enabled
        # whether any rule covers the block site; when none does, a check
        # there only counts the batch and needs no op or byte total
        self._block_faults = self._faulting and self.faults.covers(BLOCK_SITE)
        self.requests_submitted = 0
        self.kernel_time_total = 0.0
        #: shared kernel-CPU timeline: request construction serializes
        #: across *all* submitters, so a co-running process that floods
        #: the block layer with small requests steals CPU from everyone
        #: (the paper's "kernel overheads for creating and managing I/Os")
        self._cpu_free = 0.0

    def submit(
        self, op: IoOp, ranges: Sequence[DiskRange], now: float = 0.0,
        tag: str = "",
    ) -> SubmitResult:
        """Submit one syscall's command batch; returns completion info.

        ``ranges`` are the batch's ``(offset, length)`` commands (see
        :func:`~repro.block.splitter.split_ranges`), all of ``op``, from
        origin ``tag``.  The kernel builds and queues every request before
        the device can finish the batch, so kernel time is serial and
        precedes device service.  Synchronous semantics: the result's
        ``finish_time`` is when *all* split requests completed.
        """
        if not ranges:
            return SubmitResult(now, 0.0, 0, 0.0, 0.0)
        n = len(ranges)
        kernel_time = self.kernel_overhead_per_request * n
        if self._block_faults:
            nbytes = 0
            for _, length in ranges:
                nbytes += length
            fire = self.faults.check(
                BLOCK_SITE, op=op._value_, offset=ranges[0][0], length=nbytes,
                now=now,
            )
            if fire is not None:
                if fire.kind == "io_error":
                    raise DeviceIOError("block layer: injected I/O error before dispatch")
                if fire.kind == "crash":
                    raise InjectedCrash("injected power-off in the block layer")
                if fire.kind == "latency":
                    # a kernel-side stall (e.g. writeback throttling): the
                    # batch burns extra CPU time before dispatch
                    kernel_time += (
                        fire.latency if fire.latency is not None
                        else fault_hooks.DEFAULT_LATENCY_SPIKE
                    )
        elif self._faulting and self.faults.active:
            # no rule covers the block site: the check cannot fire and
            # only counts the batch, so count it without the call
            counts = self.faults.counts
            counts[BLOCK_SITE] = counts.get(BLOCK_SITE, 0) + 1
        # picks the operand ``max`` would
        cpu_start = self._cpu_free if self._cpu_free > now else now
        cpu_done = cpu_start + kernel_time
        self._cpu_free = cpu_done
        finish_time, device_time, nbytes = self.device.run_batch(op, ranges, cpu_done)
        self.requests_submitted += n
        self.kernel_time_total += kernel_time
        # only a completed batch gets here, traced with the device's byte sum
        self.tracer.observe(op, tag, ranges, nbytes, now)
        if self._observing:
            # split fan-out (commands per syscall), kernel CPU, and how far
            # behind real time the shared kernel-CPU timeline is running;
            # queue_wait/base_cpu partition this submit's latency for
            # attribution (base = what one unsplit request would have cost)
            lag = self._cpu_free - now
            self.obs.block_submit(
                n, kernel_time, lag if lag > 0.0 else 0.0,
                queue_wait=cpu_start - now,
                base_cpu=self.kernel_overhead_per_request,
            )
        # tuple.__new__ skips the generated keyword-parsing __new__ (one
        # result per batch on the hot path); fields in declaration order
        return tuple.__new__(SubmitResult, (
            finish_time, finish_time - now, n, kernel_time, device_time,
        ))
