"""The block layer's per-batch path against the composition it replaced.

``BlockScheduler.submit`` takes the batch's byte sum from the device's
capacity check (``StorageDevice.run_batch``) and hands it to the tracer,
so each batch is walked and counted once.  The reference below is the
composition before that: ``BlockScheduler.submit`` calls
``StorageDevice.submit``, which sums the commands that ran and adds them
with ``DeviceStats.add``; then ``BlockTracer.observe`` walks the ranges
again and adds them with ``TrafficCounter.add``; and the fragmentation
sampler's device listener calls ``maybe_sample``.  Twin stacks of every
device model, each with a sampler attached, replay one seeded batch
stream under twin fault planes that fire io_error, latency, torn and
crash at ``device.submit`` and ``block.submit``.  After every batch they
must agree on the result or the exception, the kernel-CPU timeline and
totals, every tracer counter, the device stats and timelines, the
sampler's count and next due time, and the plane's state; with the obs
plane armed, also every attribution record and ring event.
"""

import random
from types import SimpleNamespace
from typing import Optional, Sequence

import pytest

from repro.block import IoCommand, IoOp
from repro.block.scheduler import BlockScheduler, SubmitResult
from repro.block.splitter import DiskRange
from repro.block.tracer import BlockTracer, TrafficCounter
from repro.constants import BLOCK_SIZE, MIB
from repro.device import FlashSsd, HddDevice, MicroSdDevice, OptaneSsd
from repro.device.base import BatchResult, StorageDevice
from repro.errors import (
    DeviceError, DeviceIOError, FaultError, InjectedCrash, TornWriteError,
)
from repro.faults import FaultPlan, FaultPlane
from repro.faults import hooks as fault_hooks
from repro.faults.hooks import BLOCK_SITE
from repro.fs.free_space import FreeSpaceManager
from repro.obs import hooks as obs_hooks
from repro.obs.hooks import Instrumentation
from repro.obs.sampler import FragmentationSampler


class ReferenceDevice(StorageDevice):
    """``StorageDevice.submit`` as it was: the stats count the commands
    that ran, summed in the loop, with one ``DeviceStats.add``."""

    def submit(
        self, op: IoOp, ranges: Sequence[DiskRange], start_time: float = 0.0,
    ) -> BatchResult:
        if not ranges:
            return tuple.__new__(BatchResult, (start_time, start_time, 0.0, 0))
        capacity = self.capacity
        for offset, length in ranges:
            if offset < 0 or offset + length > capacity:
                raise DeviceError(
                    f"{self.name}: command [{offset}, {offset + length}) "
                    f"beyond capacity {capacity}"
                )
        if not self.supports_queuing:
            controller = max(start_time, self.busy_until)
        else:
            controller = max(start_time, self._controller_free)
        pickup = controller
        batch_finish = start_time
        batch_work = 0.0
        batch_penalty = 0.0
        observing = self._observing
        per_command = self._per_command
        value = op._value_
        plan_command = self._plan_command
        unit_free = self._unit_free
        unit_high = self._unit_high
        link_free = self._link_free
        link_rate = self.link_rate
        fire_at = -1
        faults = self.faults
        if self._faulting and faults.active:
            fire_at, fire = faults.scan("device.submit", value, ranges, 0, start_time)
        torn_lost: Optional[int] = None
        done_bytes = done_n = 0
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
                if unit_work and command_finish > unit_high:
                    unit_high = command_finish
                if link_bytes and link_rate:
                    link_start = link_free if link_free > dispatched else dispatched
                    link_free = link_start + link_bytes / link_rate
                    if link_free > command_finish:
                        command_finish = link_free
                if command_finish > batch_finish:
                    batch_finish = command_finish
                done_bytes += length
                done_n += 1
                batch_work += controller_time + stall
                batch_penalty += penalty_time
                if per_command:
                    self.obs.device_command(
                        self.name, value, command_finish - command_begin
                    )
                if torn_lost is not None:
                    break
        finally:
            self._unit_high = unit_high
            self._link_free = link_free
            if done_n:
                self.stats.add(op, done_bytes, done_n)
        self._controller_free = controller
        if not self.supports_queuing:
            self._controller_free = batch_finish
        self.stats.busy_time += batch_work
        if torn_lost is not None:
            raise TornWriteError(
                f"{self.name}: torn write — only {done_bytes} bytes of the "
                "batch reached the media",
                bytes_written=done_bytes,
            )
        if observing:
            self.obs.device_batch(
                self.name, len(ranges),
                self.busy_until if per_command else 0.0,
                queue_wait=pickup - start_time,
                service_time=batch_finish - pickup,
                penalty_time=batch_penalty,
            )
        if self._listeners:
            for listener in self._listeners:
                listener(op, ranges, start_time, batch_finish)
        return tuple.__new__(
            BatchResult, (start_time, batch_finish, batch_work, len(ranges))
        )


class ReferenceTracer(BlockTracer):
    """``BlockTracer.observe`` as it was: it sums the ranges itself and
    counts them with ``TrafficCounter.add``."""

    def observe(self, op, tag, ranges, now=0.0):
        counter = self.by_tag.get(tag)
        if counter is None:
            counter = self.by_tag[tag] = TrafficCounter()
        nbytes = 0
        for _, length in ranges:
            nbytes += length
        counter.add(op, nbytes, len(ranges))
        if self.keep_log:
            new = tuple.__new__
            self.log.extend(
                new(IoCommand, (op, offset, length, tag))
                for offset, length in ranges
            )
        if self._emitting:
            value = op._value_
            for offset, length in ranges:
                self.obs.event(
                    "block.cmd", now, track="block",
                    op=value, offset=offset, length=length, tag=tag,
                )


class ReferenceScheduler(BlockScheduler):
    """``BlockScheduler.submit`` as it was: ``max`` timelines, the
    device's ``BatchResult`` and a tracer that walks the ranges again."""

    def __init__(self, device, kernel_overhead_per_request=0.000003):
        super().__init__(device, kernel_overhead_per_request)
        self.tracer = ReferenceTracer()

    def submit(self, op, ranges, now=0.0, tag=""):
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
                    kernel_time += (
                        fire.latency if fire.latency is not None
                        else fault_hooks.DEFAULT_LATENCY_SPIKE
                    )
        elif self._faulting and self.faults.active:
            counts = self.faults.counts
            counts[BLOCK_SITE] = counts.get(BLOCK_SITE, 0) + 1
        cpu_start = max(now, self._cpu_free)
        cpu_done = cpu_start + kernel_time
        self._cpu_free = cpu_done
        batch = self.device.submit(op, ranges, cpu_done)
        self.requests_submitted += n
        self.kernel_time_total += kernel_time
        self.tracer.observe(op, tag, ranges, now)
        if self._observing:
            self.obs.block_submit(
                n, kernel_time, max(0.0, self._cpu_free - now),
                queue_wait=cpu_start - now,
                base_cpu=self.kernel_overhead_per_request,
            )
        return tuple.__new__(SubmitResult, (
            batch.finish_time, batch.finish_time - now, n,
            kernel_time, batch.service_time,
        ))


class ReferenceSampler(FragmentationSampler):
    """The sampler's device listener as it was: a call into
    ``maybe_sample``."""

    def _on_batch(self, op, ranges, start, finish):
        self.maybe_sample(finish)

    def maybe_sample(self, now):
        if self._next_due is not None and now < self._next_due:
            return False
        self.sample(now)
        return True


MODELS = (FlashSsd, OptaneSsd, HddDevice, MicroSdDevice)

#: the stream stays inside this span, so the flash FTL never runs out of
#: space while the device is much larger
SPAN = 8 * MIB
CAPACITY = 64 * MIB
TAGS = ("app", "defrag", "writeback", "meta")
BATCHES = 500


def _plan(seed: int) -> FaultPlan:
    return (
        FaultPlan(seed=seed)
        .latency_spike("device.submit", probability=0.06, max_fires=0)
        .torn_write("device.submit", torn_fraction=0.4, probability=0.03, max_fires=0)
        .torn_write("device.submit", torn_fraction=0.0, probability=0.01, max_fires=0)
        .io_error("device.submit", op="read", probability=0.02, max_fires=0)
        .crash("device.submit", after_ops=120)
        .latency_spike(BLOCK_SITE, probability=0.05, max_fires=0)
        .io_error(BLOCK_SITE, op="write", probability=0.02, max_fires=0)
        .crash(BLOCK_SITE, after_ops=300)
    )


def _stack(model, scheduler_cls, sampler_cls, plan: FaultPlan, armed: bool):
    """(scheduler, sampler, plane): a device of ``model`` behind
    ``scheduler_cls``, sampled by ``sampler_cls``, on its own live fault
    plane (and, ``armed``, its own obs plane)."""
    plane = FaultPlane(plan, active=True)
    obs = Instrumentation() if armed else obs_hooks.NULL
    with fault_hooks.use(plane), obs_hooks.use(obs):
        scheduler = scheduler_cls(model(capacity=CAPACITY))
        fs = SimpleNamespace(
            device=scheduler.device, inodes={},
            free_space=FreeSpaceManager(0, CAPACITY),
        )
        sampler = sampler_cls(fs, interval=0.002).attach()
    return scheduler, sampler, plane


def _batches(seed: int, n: int):
    """Seeded single-op batches: ``(op, ranges, tag, now)``."""
    rng = random.Random(seed)
    now = 0.0
    for _ in range(n):
        now += rng.random() * 0.0004
        op = rng.choice((IoOp.READ, IoOp.READ, IoOp.WRITE, IoOp.WRITE, IoOp.DISCARD))
        ranges = []
        for _ in range(rng.choice((0, 1, 1, 1, 2, 3, 5, 9))):
            pages = rng.choice((1, 2, 4, 16))
            offset = rng.randrange(0, SPAN // BLOCK_SIZE - pages) * BLOCK_SIZE
            ranges.append((offset, pages * BLOCK_SIZE))
        if ranges and rng.random() < 0.02:  # rejected whole: past the capacity
            ranges.append((CAPACITY - BLOCK_SIZE, 2 * BLOCK_SIZE))
        yield op, ranges, rng.choice(TAGS), now


def _submit(scheduler, op, ranges, tag, now):
    """``(result, (exception type, message, bytes_written))``."""
    try:
        return scheduler.submit(op, ranges, now, tag), None
    except (DeviceError, FaultError) as exc:
        return None, (type(exc), str(exc), getattr(exc, "bytes_written", None))


def _state(scheduler, sampler, plane):
    device = scheduler.device
    return (
        scheduler._cpu_free, scheduler.requests_submitted, scheduler.kernel_time_total,
        dict(scheduler.tracer.by_tag), device.stats,
        device._controller_free, device._link_free, dict(device._unit_free),
        device._unit_high, device.busy_until,
        sampler.samples_taken, sampler._next_due,
        plane.stats.fires, plane.counts,
        [(s.matched, s.fired, s.rng.getstate() if s.rng else None)
         for s in plane._rules],
    )


@pytest.mark.parametrize("armed", [False, True], ids=["null", "armed"])
@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.__name__)
def test_scheduler_batch_path_matches_the_reference_composition(model, armed):
    plan = _plan(seed=11)
    stack = _stack(model, BlockScheduler, FragmentationSampler, plan, armed)
    reference_model = type(f"Reference{model.__name__}", (ReferenceDevice, model), {})
    reference = _stack(
        reference_model, ReferenceScheduler, ReferenceSampler, plan, armed,
    )
    raised = set()
    for step, (op, ranges, tag, now) in enumerate(_batches(11, BATCHES)):
        with fault_hooks.use(stack[2]), obs_hooks.use(stack[0].obs):
            got = _submit(stack[0], op, ranges, tag, now)
        with fault_hooks.use(reference[2]), obs_hooks.use(reference[0].obs):
            want = _submit(reference[0], op, ranges, tag, now)
        assert got == want, (step, op, ranges)
        assert _state(*stack) == _state(*reference), step
        if got[1] is not None:
            raised.add((got[1][0], got[1][1].startswith("block layer")
                        or "in the block layer" in got[1][1]))
    assert stack[1].to_dict() == reference[1].to_dict()
    got, want = stack[0].obs, reference[0].obs
    assert (got is not want) == armed
    if armed:  # the attribution records and every ring event agree too
        assert got.registry.to_dict() == want.registry.to_dict()
        assert [(e.name, e.time, e.track, e.attrs) for e in got.spans.events] == \
            [(e.name, e.time, e.track, e.attrs) for e in want.spans.events]
    # every fault kind fired, at both sites where it can, and the capacity
    # check rejected some batches whole
    kinds = {(fire.site, fire.kind) for fire in stack[2].stats.fires}
    assert kinds == {
        ("device.submit", "io_error"), ("device.submit", "latency"),
        ("device.submit", "torn"), ("device.submit", "crash"),
        (BLOCK_SITE, "io_error"), (BLOCK_SITE, "latency"), (BLOCK_SITE, "crash"),
    }
    assert {(DeviceError, False), (TornWriteError, False), (DeviceIOError, False),
            (InjectedCrash, False), (DeviceIOError, True), (InjectedCrash, True)} <= raised
    assert stack[1].samples_taken > 10
