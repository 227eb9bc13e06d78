"""The live instrumentation facades: what an armed obs plane records.

:mod:`repro.obs.hooks` installs them and holds the null default; this
module, with the metrics registry and span recorder it builds on, loads
only where a plane is armed.


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

from typing import Dict, Optional, Tuple

from .metrics import COUNT_BOUNDS, Counter, Gauge, Histogram, MetricsRegistry
from .spans import Span, SpanRecorder


class Instrumentation:
    """Live facade: metrics registry + span recorder behind layer hooks.

    ``max_spans``/``max_events`` size the span store and event ring when
    the facade builds its own :class:`SpanRecorder` (ignored when an
    existing ``spans`` recorder is passed — size that one directly).  The
    event ring evicts oldest-first once full; every wrap increments the
    ``obs.events_dropped`` counter so a run can't lose events silently
    (see :mod:`repro.obs.spans` for the truncation contract).
    """

    enabled = True

    #: devices and block tracers built under this facade report every
    #: command (``device_command``, ``block.cmd`` events); read once at
    #: their construction, like ``enabled``
    per_command = True

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        spans: Optional[SpanRecorder] = None,
        max_spans: Optional[int] = None,
        max_events: Optional[int] = None,
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
        # get-or-create caches so hot hooks skip name formatting when possible
        self._syscall: Dict[str, Tuple[Counter, Histogram]] = {}
        #: the attribution-only facade's latency histograms by op
        self._latency: Dict[str, Histogram] = {}
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
        self._kernel_time.inc(kernel_time)
        self._requests.inc(fanout)
        self._backlog.set(backlog)
        self._attribute_submit(fanout, kernel_time, queue_wait, base_cpu)

    def _attribute_submit(
        self, fanout: int, kernel_time: float, queue_wait: float, base_cpu: float
    ) -> None:
        self._fanout.observe(fanout)
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
        self._attribute_device(queue_wait, service_time, penalty_time)

    def _attribute_device(
        self, queue_wait: float, service_time: float, penalty_time: float
    ) -> None:
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


class AttributionInstrumentation(Instrumentation):
    """Live facade that records only what a latency attribution reads.

    It keeps the ``attrib.*`` counters, the ``fs.syscall_latency.<op>``
    histograms (their sum and count are the attribution's total) and the
    ``block.split_fanout`` histogram, each exactly as the full facade
    records them, so an attribution or fan-out summary read from it
    equals the full facade's.  It skips everything else: the
    ``fs.syscall.<op>`` counters (the histogram counts the same calls),
    ``block.kernel_time_s``, ``block.requests`` and
    ``block.queue_backlog_s``.  Devices and tracers built under it skip
    the per-command ``device_command`` histograms and ``block.cmd``
    events, and ``device_batch`` feeds only the ``attrib.device_*``
    counters (devices do not compute ``busy_until`` for it).
    """

    per_command = False

    def syscall(self, op: str, latency: float) -> None:
        hist = self._latency.get(op)
        if hist is None:
            hist = self._latency[op] = self.registry.histogram(
                f"fs.syscall_latency.{op}"
            )
        hist.observe(latency)

    def block_submit(
        self,
        fanout: int,
        kernel_time: float,
        backlog: float,
        queue_wait: float = 0.0,
        base_cpu: float = 0.0,
    ) -> None:
        self._attribute_submit(fanout, kernel_time, queue_wait, base_cpu)

    def device_batch(
        self,
        device: str,
        commands: int,
        busy_until: float,
        queue_wait: float = 0.0,
        service_time: float = 0.0,
        penalty_time: float = 0.0,
    ) -> None:
        self._attribute_device(queue_wait, service_time, penalty_time)
