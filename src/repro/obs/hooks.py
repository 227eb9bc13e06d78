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

The live facades (:class:`Instrumentation`, :class:`AttributionInstrumentation`)
are defined in :mod:`repro.obs.live`, with the metrics registry and span
recorder they build on; this module names them lazily, so a process that
never arms the plane never imports them.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Optional

from ..exports import lazy_exports

if TYPE_CHECKING:
    from .live import Instrumentation
    from .metrics import MetricsRegistry
    from .spans import Span, SpanRecorder

#: the live facades, imported on first use
_EXPORTS = {"Instrumentation": "live", "AttributionInstrumentation": "live"}
__getattr__, __dir__, _ = lazy_exports(__name__, _EXPORTS)


class NullInstrumentation:
    """Disabled facade: every hook is a no-op, ``enabled`` is falsy.

    Layers guard with ``if self.obs.enabled:``, so none of these methods
    run on the hot path; they exist so unguarded call sites stay safe.
    """

    enabled = False
    registry = None
    spans = None

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
) -> Instrumentation:
    """Install (and return) a live instrumentation."""
    from .live import Instrumentation

    instrumentation = Instrumentation(
        registry, spans, max_spans=max_spans, max_events=max_events,
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
