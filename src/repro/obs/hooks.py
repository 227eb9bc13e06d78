"""The ``Instrumentation`` facade the storage stack calls into.

Every layer keeps one reference (``self.obs``) captured at construction
time and guards each hook call with ``if self.obs.enabled:`` — so with the
default :class:`NullInstrumentation` installed, the hot path costs one
attribute lookup and a falsy branch, nothing more.

Enable it around an experiment::

    from repro.obs import hooks
    obs = hooks.enable()          # installs a live Instrumentation
    fs, device = fresh_fs(...)    # layers built now pick it up
    ...
    print(export.metrics_table(obs.registry))
    hooks.disable()

or scoped::

    with hooks.use(hooks.Instrumentation()) as obs:
        ...

What each layer reports:

========================  =====================================================
layer                     metrics / spans
========================  =====================================================
``fs`` (VFS syscalls)     ``fs.syscall.<op>`` counter,
                          ``fs.syscall_latency.<op>`` histogram
``block`` (scheduler)     ``block.split_fanout`` histogram (commands per
                          syscall — the paper's core mechanism),
                          ``block.kernel_time_s`` / ``block.requests``
                          counters, ``block.queue_backlog_s`` gauge
``device``                ``device.<name>.command_latency.<op>`` histogram,
                          ``device.<name>.batch_commands`` histogram,
                          ``device.<name>.busy_until`` gauge
``core`` (FragPicker)     ``fragpicker.*`` spans (defragment/analyze/migrate)
                          and frag-check events
``sim`` (engine)          ``sim.actor_step.<actor>`` histogram plus
                          ``actor.run`` ring-buffer events
========================  =====================================================

Latency attribution
-------------------

Beyond the per-layer metrics, every layer also feeds a small set of
``attrib.*_s`` counters that *partition* each syscall's wall-clock latency
into named components, measured at the layer that owns them:

- ``attrib.fs_cpu_s`` — host CPU above the block layer (syscall overhead,
  page-cache memcpy, attached-probe cost);
- ``attrib.kernel_queue_s`` — wait for the shared kernel-CPU timeline;
- ``attrib.kernel_cpu_base_s`` — baseline request-build CPU (one request
  per syscall);
- ``attrib.kernel_cpu_split_s`` — the *extra* kernel CPU caused by request
  splitting (goes to ~0 once a file is contiguous — the paper's
  mechanism);
- ``attrib.device_queue_s`` — device-side wait behind earlier traffic;
- ``attrib.device_service_s`` — device wall-clock service after pickup,
  minus penalties;
- ``attrib.device_penalty_s`` — seek / mapping-miss penalties the device
  models charge for discontiguity.

Because each component is an exact slice of the same timeline the
syscall-latency histograms measure, the components sum to the measured
total; :func:`repro.obs.analysis.attribute` renders the breakdown and
checks that invariant.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Optional, Tuple

from .metrics import COUNT_BOUNDS, Counter, Gauge, Histogram, MetricsRegistry
from .provenance import ProvenanceRecorder
from .spans import Span, SpanRecorder


class Instrumentation:
    """Live facade: metrics registry + span recorder behind layer hooks.

    ``max_spans``/``max_events`` size the span store and event ring when
    the facade builds its own :class:`SpanRecorder` (ignored when an
    existing ``spans`` recorder is passed — size that one directly).  The
    event ring evicts oldest-first once full; every wrap increments the
    ``obs.events_dropped`` counter so provenance-armed runs can't lose
    causal edges silently (see :mod:`repro.obs.spans` for the truncation
    contract).

    ``provenance=True`` arms per-syscall causal tracing: layers built
    while this facade is installed mint provenance ids and record
    syscall→request→command edges into the event ring
    (:mod:`repro.obs.provenance`).  Disarmed (the default), no ids are
    minted and commands carry ``pid=0``.

    ``slo=`` attaches an :class:`~repro.obs.slo.SloPlane`: producers that
    feed windowed telemetry (the fragmentation sampler, the fleet
    controller, post-hoc harness evaluation) guard with
    ``if obs.slo is not None`` *inside* their ``obs.enabled`` branch —
    the same boolean-sentinel fast path as the obs/fault planes, so with
    no plane attached (the default) nothing changes on any path.
    """

    enabled = True

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        spans: Optional[SpanRecorder] = None,
        max_spans: Optional[int] = None,
        max_events: Optional[int] = None,
        provenance: bool = False,
        slo=None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        if spans is not None:
            self.spans = spans
        else:
            span_kwargs = {}
            if max_spans is not None:
                span_kwargs["max_spans"] = max_spans
            if max_events is not None:
                span_kwargs["max_events"] = max_events
            self.spans = SpanRecorder(**span_kwargs)
        self.provenance: Optional[ProvenanceRecorder] = (
            ProvenanceRecorder(self.spans) if provenance else None
        )
        #: optional SLO plane (repro.obs.slo); None = no windowed judging
        self.slo = slo
        if slo is not None:
            slo.bind(self)
        # get-or-create caches so hot hooks skip name formatting when possible
        self._syscall: Dict[str, Tuple[Counter, Histogram]] = {}
        self._device: Dict[Tuple[str, str], Histogram] = {}
        self._device_batch: Dict[str, Tuple[Histogram, Gauge]] = {}
        self._actor: Dict[str, Histogram] = {}
        reg = self.registry
        self._fanout = reg.histogram("block.split_fanout", COUNT_BOUNDS)
        self._kernel_time = reg.counter("block.kernel_time_s")
        self._requests = reg.counter("block.requests")
        self._backlog = reg.gauge("block.queue_backlog_s")
        # latency-attribution components (see module docstring)
        self._attr_fs_cpu = reg.counter("attrib.fs_cpu_s")
        self._attr_kernel_queue = reg.counter("attrib.kernel_queue_s")
        self._attr_kernel_base = reg.counter("attrib.kernel_cpu_base_s")
        self._attr_kernel_split = reg.counter("attrib.kernel_cpu_split_s")
        self._attr_dev_queue = reg.counter("attrib.device_queue_s")
        self._attr_dev_service = reg.counter("attrib.device_service_s")
        self._attr_dev_penalty = reg.counter("attrib.device_penalty_s")
        # fault plane / resilience (repro.faults)
        self._fault: Dict[str, Counter] = {}
        self._faults_total = reg.counter("faults.injected.total")
        self._recovery_entries = reg.counter("recovery.entries_replayed")
        self._recovery_bytes = reg.counter("recovery.bytes_restored")
        # event-ring wrap visibility (see the class docstring)
        self.spans.drop_counter = reg.counter("obs.events_dropped")

    # -- fs / VFS ------------------------------------------------------

    def syscall(self, op: str, latency: float) -> None:
        pair = self._syscall.get(op)
        if pair is None:
            pair = self._syscall[op] = (
                self.registry.counter(f"fs.syscall.{op}"),
                self.registry.histogram(f"fs.syscall_latency.{op}"),
            )
        pair[0].inc()
        pair[1].observe(latency)

    def fs_cpu(self, seconds: float) -> None:
        """Host CPU spent above the block layer (one syscall's worth)."""
        self._attr_fs_cpu.inc(seconds)

    # -- block layer ---------------------------------------------------

    def block_submit(
        self,
        fanout: int,
        kernel_time: float,
        backlog: float,
        queue_wait: float = 0.0,
        base_cpu: float = 0.0,
    ) -> None:
        self._fanout.observe(fanout)
        self._kernel_time.inc(kernel_time)
        self._requests.inc(fanout)
        self._backlog.set(backlog)
        self._attr_kernel_queue.inc(queue_wait)
        base = min(base_cpu, kernel_time)
        self._attr_kernel_base.inc(base)
        self._attr_kernel_split.inc(kernel_time - base)

    # -- device layer --------------------------------------------------

    def device_command(self, device: str, op: str, service_time: float) -> None:
        hist = self._device.get((device, op))
        if hist is None:
            hist = self._device[(device, op)] = self.registry.histogram(
                f"device.{device}.command_latency.{op}"
            )
        hist.observe(service_time)

    def device_batch(
        self,
        device: str,
        commands: int,
        busy_until: float,
        queue_wait: float = 0.0,
        service_time: float = 0.0,
        penalty_time: float = 0.0,
    ) -> None:
        pair = self._device_batch.get(device)
        if pair is None:
            pair = self._device_batch[device] = (
                self.registry.histogram(f"device.{device}.batch_commands", COUNT_BOUNDS),
                self.registry.gauge(f"device.{device}.busy_until"),
            )
        pair[0].observe(commands)
        pair[1].set(busy_until)
        self._attr_dev_queue.inc(queue_wait)
        penalty = min(penalty_time, service_time)
        self._attr_dev_service.inc(service_time - penalty)
        self._attr_dev_penalty.inc(penalty)

    # -- fault plane / resilience (repro.faults) -----------------------

    def fault_injected(self, site: str, kind: str) -> None:
        """One fault fired at ``site`` (called by the fault plane)."""
        key = f"faults.injected.{site}.{kind}"
        counter = self._fault.get(key)
        if counter is None:
            counter = self._fault[key] = self.registry.counter(key)
        counter.inc()
        self._faults_total.inc()

    def migration_retry(self, tool: str = "fragpicker") -> None:
        key = f"{tool}.migration_retries"
        counter = self._fault.get(key)
        if counter is None:
            counter = self._fault[key] = self.registry.counter(key)
        counter.inc()

    def migration_failed(self, tool: str = "fragpicker") -> None:
        key = f"{tool}.migrations_failed"
        counter = self._fault.get(key)
        if counter is None:
            counter = self._fault[key] = self.registry.counter(key)
        counter.inc()

    def recovery_replayed(self, entries: int, bytes_restored: int) -> None:
        """One journal recovery pass finished."""
        self._recovery_entries.inc(entries)
        self._recovery_bytes.inc(bytes_restored)

    # -- spans / events ------------------------------------------------

    def span_start(self, name: str, now: float, track: str = "main", **attrs: object) -> Span:
        return self.spans.start(name, now, track=track, **attrs)

    def span_finish(self, span: Optional[Span], now: float) -> None:
        if span is not None:
            self.spans.finish(span, now)

    def event(self, name: str, now: float, track: str = "main", **attrs: object) -> None:
        self.spans.event(name, now, track=track, **attrs)

    # -- sim engine ----------------------------------------------------

    def actor_step(self, actor: str, start: float, end: float) -> None:
        hist = self._actor.get(actor)
        if hist is None:
            hist = self._actor[actor] = self.registry.histogram(
                f"sim.actor_step.{actor}"
            )
        hist.observe(max(0.0, end - start))
        self.spans.event("actor.run", start, track=actor, until=end)


class NullInstrumentation:
    """Disabled facade: every hook is a no-op, ``enabled`` is falsy.

    Layers guard with ``if self.obs.enabled:``, so none of these methods
    run on the hot path; they exist so unguarded call sites stay safe.
    """

    enabled = False
    registry = None
    spans = None
    provenance = None
    slo = None

    def __deepcopy__(self, memo) -> "NullInstrumentation":
        # stateless singleton: a cloned filesystem keeps ``obs is NULL``
        return self

    def syscall(self, op: str, latency: float) -> None:
        pass

    def fs_cpu(self, seconds: float) -> None:
        pass

    def block_submit(
        self,
        fanout: int,
        kernel_time: float,
        backlog: float,
        queue_wait: float = 0.0,
        base_cpu: float = 0.0,
    ) -> None:
        pass

    def device_command(self, device: str, op: str, service_time: float) -> None:
        pass

    def device_batch(
        self,
        device: str,
        commands: int,
        busy_until: float,
        queue_wait: float = 0.0,
        service_time: float = 0.0,
        penalty_time: float = 0.0,
    ) -> None:
        pass

    def fault_injected(self, site: str, kind: str) -> None:
        pass

    def migration_retry(self, tool: str = "fragpicker") -> None:
        pass

    def migration_failed(self, tool: str = "fragpicker") -> None:
        pass

    def recovery_replayed(self, entries: int, bytes_restored: int) -> None:
        pass

    def span_start(self, name: str, now: float, track: str = "main", **attrs: object) -> None:
        return None

    def span_finish(self, span: Optional[Span], now: float) -> None:
        pass

    def event(self, name: str, now: float, track: str = "main", **attrs: object) -> None:
        pass

    def actor_step(self, actor: str, start: float, end: float) -> None:
        pass


NULL = NullInstrumentation()
_current = NULL


def current():
    """The process-wide instrumentation (null unless enabled)."""
    return _current


def install(instrumentation) -> None:
    global _current
    _current = instrumentation


def enable(
    registry: Optional[MetricsRegistry] = None,
    spans: Optional[SpanRecorder] = None,
    max_spans: Optional[int] = None,
    max_events: Optional[int] = None,
    provenance: bool = False,
    slo=None,
) -> Instrumentation:
    """Install (and return) a live instrumentation."""
    instrumentation = Instrumentation(
        registry, spans, max_spans=max_spans, max_events=max_events,
        provenance=provenance, slo=slo,
    )
    install(instrumentation)
    return instrumentation


def disable() -> None:
    install(NULL)


@contextmanager
def use(instrumentation):
    """Scoped install; restores the previous instrumentation on exit."""
    previous = current()
    install(instrumentation)
    try:
        yield instrumentation
    finally:
        install(previous)
