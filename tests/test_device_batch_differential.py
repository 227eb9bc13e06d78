"""Batch-granular ``StorageDevice.submit`` against the per-command loop.

``submit`` checks a batch with one ``FaultPlane.scan``, enacts a fire when
its loop reaches the command, and adds the batch to ``DeviceStats`` once.
The reference below is the loop it replaced: one ``FaultPlane.check`` and
one ``DeviceStats.add`` per command, each command an ``IoCommand``
record built from the batch's op.  A batch is one op, so the
stream's batches are single-op (mixed-op batches no longer exist).  Twin
devices of every model replay the same seeded batch stream under twin
fault planes and must agree after every batch: the result or the
exception, the stats, every resource timeline and the plane's state.
"""

import random
from typing import Optional, Sequence, Tuple

import pytest

from repro.block import IoCommand, IoOp
from repro.constants import BLOCK_SIZE, KIB, MIB
from repro.device import FlashSsd, HddDevice, MicroSdDevice, OptaneSsd
from repro.device.base import BatchResult, StorageDevice
from repro.device.flash import FlashParams
from repro.errors import (
    DeviceError, DeviceIOError, FaultError, InjectedCrash, TornWriteError,
)
from repro.faults import FaultPlan, FaultPlane
from repro.faults import hooks as fault_hooks
from repro.obs import hooks as obs_hooks
from repro.obs.hooks import Instrumentation


class PerCommandDevice(StorageDevice):
    """The per-command ``submit``: one fault check per command."""

    def submit(
        self, op: IoOp, ranges: Sequence[Tuple[int, int]], start_time: float = 0.0,
    ) -> BatchResult:
        if not ranges:
            return BatchResult(start_time, start_time, 0.0, 0)
        commands = [IoCommand(op, offset, length) for offset, length in ranges]
        for command in commands:
            if command.end > self.capacity:
                raise DeviceError(
                    f"{self.name}: command [{command.offset}, {command.end}) "
                    f"beyond capacity {self.capacity}"
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
        faulting = self._faulting
        plan_command = self._plan_command
        unit_free = self._unit_free
        unit_get = unit_free.get
        unit_high = self._unit_high
        add = self.stats.add
        link_rate = self.link_rate
        torn_lost: Optional[int] = None
        done_bytes = 0
        for command in commands:
            stall = 0.0
            if faulting:
                command, stall, torn_lost = self._apply_fault(command, start_time)
                if command is None:
                    break
            plan = plan_command(command.op, command.offset, command.length)
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
            self._unit_high = unit_high
            if plan.link_bytes and link_rate:
                link_time = plan.link_bytes / link_rate
                link_start = max(dispatched, self._link_free)
                link_end = link_start + link_time
                self._link_free = link_end
                if link_end > command_finish:
                    command_finish = link_end
            if command_finish > batch_finish:
                batch_finish = command_finish
            add(command.op, command.length)
            done_bytes += command.length
            batch_work += plan.controller_time + stall
            batch_penalty += plan.penalty_time
            if observing and per_command:
                self.obs.device_command(
                    self.name, command.op._value_, command_finish - command_begin
                )
            if torn_lost is not None:
                break
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
                self.name, len(commands), self.busy_until,
                queue_wait=pickup - start_time,
                service_time=batch_finish - pickup,
                penalty_time=batch_penalty,
            )
        if self._listeners:
            for listener in self._listeners:
                listener(op, ranges, start_time, batch_finish)
        return BatchResult(start_time, batch_finish, batch_work, len(commands))

    def _apply_fault(
        self, command: IoCommand, now: float
    ) -> Tuple[Optional[IoCommand], float, Optional[int]]:
        fire = self.faults.check(
            "device.submit",
            op=command.op.value,
            offset=command.offset,
            length=command.length,
            now=now,
        )
        if fire is None:
            return command, 0.0, None
        if fire.kind == "io_error":
            raise DeviceIOError(
                f"{self.name}: injected I/O error on {command.op.value} "
                f"at [{command.offset}, {command.end})"
            )
        if fire.kind == "crash":
            raise InjectedCrash(
                f"{self.name}: injected power-off during {command.op.value}"
            )
        if fire.kind == "latency":
            stall = fire.latency if fire.latency is not None else self.fault_latency_spike
            return command, stall, None
        if command.op is not IoOp.WRITE or fire.torn_length >= command.length:
            return command, 0.0, None
        lost = command.length - fire.torn_length
        if fire.torn_length <= 0:
            return None, 0.0, command.length
        return command._replace(length=fire.torn_length), 0.0, lost


MODELS = (FlashSsd, OptaneSsd, HddDevice, MicroSdDevice)

#: the batch stream stays inside this span, so the flash FTL never runs
#: out of space while the device is much larger
SPAN = 8 * MIB
CAPACITY = 64 * MIB


def _twins(model, plan: FaultPlan, armed: bool = False, **kwargs):
    """(batch device, per-command device), each on its own live plane
    (and, ``armed``, its own obs plane)."""
    reference = type(f"PerCommand{model.__name__}", (PerCommandDevice, model), {})
    built = []
    for cls in (model, reference):
        plane = FaultPlane(plan, active=True)
        obs = Instrumentation() if armed else obs_hooks.NULL
        with fault_hooks.use(plane), obs_hooks.use(obs):
            built.append((cls(**kwargs), plane))
    return built


def _storm(seed: int, crash_after: int) -> FaultPlan:
    return (
        FaultPlan(seed=seed)
        .latency_spike("device.submit", probability=0.08, max_fires=0)
        .torn_write("device.submit", torn_fraction=0.4, probability=0.03, max_fires=0)
        .torn_write("device.submit", torn_fraction=0.0, probability=0.01, max_fires=0)
        .io_error("device.submit", op="read", probability=0.02, max_fires=0)
        .crash("device.submit", after_ops=crash_after)
    )


def _latency_only(seed: int, crash_after: int) -> FaultPlan:
    # one filterless probability rule: a draw per command
    return FaultPlan(seed=seed).latency_spike("device.submit", probability=0.1, max_fires=0)


def _batches(seed: int, n: int):
    """Seeded single-op batches: ``((op, ranges), now)``."""
    rng = random.Random(seed)
    now = 0.0
    for _ in range(n):
        now += rng.random() * 0.0005
        op = rng.choice((IoOp.READ, IoOp.READ, IoOp.WRITE, IoOp.DISCARD))
        ranges = []
        for _ in range(rng.choice((1, 1, 2, 3, 5, 9))):
            pages = rng.choice((1, 2, 4, 16))
            offset = rng.randrange(0, SPAN // BLOCK_SIZE - pages) * BLOCK_SIZE
            ranges.append((offset, pages * BLOCK_SIZE))
        if rng.random() < 0.02:  # rejected whole: it ends past the capacity
            ranges.append((CAPACITY - BLOCK_SIZE, 2 * BLOCK_SIZE))
        yield (op, ranges), now


def _submit(device, batch, now):
    """``(result, (exception type, message, bytes_written))``."""
    op, ranges = batch
    try:
        return device.submit(op, ranges, now), None
    except (DeviceError, FaultError) as exc:
        return None, (type(exc), str(exc), getattr(exc, "bytes_written", None))


def _armed_submit(device, step, batch, now):
    """``_submit`` inside a ``batch`` span that a ``batch.issue`` ring
    event opens, under the device's own obs plane (the fault plane
    commits into the ambient plane, as in a real run)."""
    obs = device.obs
    with obs_hooks.use(obs):
        span = obs.span_start("batch", now, step=step)
        obs.event("batch.issue", now, step=step)
        outcome = _submit(device, batch, now)
        result = outcome[0]
        obs.span_finish(span, result.finish_time if result is not None else now)
    return outcome


def _device_state(device):
    return (
        device.stats, device._controller_free, device._link_free,
        dict(device._unit_free), device._unit_high, device.busy_until,
    )


def _plane_state(plane):
    return (
        plane.stats.fires, plane.stats.by_site_kind, plane.counts,
        [(s.matched, s.fired, s.rng.getstate() if s.rng else None)
         for s in plane._rules],
    )


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.__name__)
@pytest.mark.parametrize("seed,crash_after,build", [
    (1, 40, _storm), (5, 333, _storm), (9, 10**9, _storm), (2, 10**9, _latency_only),
])
def test_batch_submit_matches_per_command_loop(model, seed, crash_after, build):
    (batch, batch_plane), (reference, reference_plane) = _twins(
        model, build(seed, crash_after), capacity=CAPACITY
    )
    raised = set()
    for step, (commands, now) in enumerate(_batches(seed, 600)):
        got = _submit(batch, commands, now)
        want = _submit(reference, commands, now)
        assert got == want, (step, commands)
        assert _device_state(batch) == _device_state(reference), step
        assert _plane_state(batch_plane) == _plane_state(reference_plane), step
        if got[1] is not None:
            raised.add(got[1][0])
    assert batch_plane.stats.total > 0
    assert DeviceError in raised  # the capacity check
    if build is _storm:
        assert {TornWriteError, DeviceIOError} <= raised
        assert (InjectedCrash in raised) == (crash_after < 10**9)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.__name__)
@pytest.mark.parametrize("build", [_storm, _latency_only])
def test_armed_exports_keep_their_event_order(model, build):
    """A fire is committed when the loop reaches its command, so each
    ``fault.injected`` event lands in the ring after the same batch's
    ``batch.issue`` event and inside that batch's span."""
    (batch, _), (reference, _) = _twins(
        model, build(3, 150), armed=True, capacity=CAPACITY
    )
    for step, (commands, now) in enumerate(_batches(3, 250)):
        got = _armed_submit(batch, step, commands, now)
        want = _armed_submit(reference, step, commands, now)
        assert got == want, step
    got, want = batch.obs, reference.obs
    assert got is not want
    assert [(e.name, e.time, e.track, e.attrs) for e in got.spans.events] == \
        [(e.name, e.time, e.track, e.attrs) for e in want.spans.events]
    assert [(s.name, s.start, s.end, s.attrs) for s in got.spans.finished_spans()] == \
        [(s.name, s.start, s.end, s.attrs) for s in want.spans.finished_spans()]
    spans = {span.attrs["step"]: span for span in got.spans.finished_spans()}
    fired = 0
    for event in got.spans.events:
        if event.name == "batch.issue":
            span = spans[event.attrs["step"]]
        elif event.name == "fault.injected":
            fired += 1
            assert span.start <= event.time <= span.end, event
    assert fired
    assert got.registry.to_dict() == want.registry.to_dict()


def test_ftl_error_mid_batch_leaves_the_same_device_state():
    # 64 pages, no overprovisioning: once every page holds valid data, GC
    # finds no victim and the first rewrite fails with "out of space"
    params = FlashParams(channels=1, pages_per_block=8, overprovision=0.0)
    plan = FaultPlan(seed=4).latency_spike("device.submit", probability=0.5, max_fires=0)
    (batch, batch_plane), (reference, reference_plane) = _twins(
        FlashSsd, plan, capacity=64 * BLOCK_SIZE, params=params
    )
    # all but the last two pages hold data; the doomed batch writes those
    # two fresh pages, then its first rewrite fails
    fill = (IoOp.WRITE, [(page * BLOCK_SIZE, BLOCK_SIZE) for page in range(62)])
    for device in (batch, reference):
        assert _submit(device, fill, 0.0)[1] is None
    doomed = (IoOp.WRITE, [
        (62 * BLOCK_SIZE, BLOCK_SIZE),
        (63 * BLOCK_SIZE, BLOCK_SIZE),
        (32 * KIB, 4 * KIB),
        (64 * KIB, 4 * KIB),
        (96 * KIB, 4 * KIB),
    ])
    got = _submit(batch, doomed, 1.0)
    want = _submit(reference, doomed, 1.0)
    assert got == want
    assert got[1][0] is DeviceError and "out of space" in got[1][1]
    assert _device_state(batch) == _device_state(reference)
    assert batch.stats.write_commands == 64  # the two writes before the rewrite ran
    # the scan may have checked past the failing write (see FaultPlane.scan);
    # fires the device reached are committed alike
    assert batch_plane.counts["device.submit"] >= reference_plane.counts["device.submit"]
    assert batch_plane.stats.fires == reference_plane.stats.fires
