"""Virtual-time simulation: the co-running engine (multiple actors
time-sharing one device FCFS).  A lone actor needs no engine: it threads
``now=`` through each syscall and carries on from the result's
``finish_time``."""

from ..exports import lazy_exports

_EXPORTS = {
    "ActorContext": "engine",
    "run_concurrently": "engine",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
