"""Virtual-time simulation: sessions (single actor) and the co-running
engine (multiple actors time-sharing one device FCFS)."""

from ..exports import lazy_exports

_EXPORTS = {
    "Clock": "clock",
    "Session": "session",
    "ActorContext": "engine",
    "run_concurrently": "engine",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
