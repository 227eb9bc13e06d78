"""repro.faults — deterministic fault injection and crash consistency.

The paper's safety argument (Section 4.2.2) is that user-level migration
survives sudden power-off because range lists and buffered data are kept
until success.  This subsystem exists to *attack* that argument — and the
rest of the stack — systematically:

- :mod:`repro.faults.plan` — the seeded :class:`FaultPlan` DSL: declarative
  rules triggered by op-count, virtual time, LBA range, op kind, or
  probability (each probabilistic rule gets a dedicated RNG stream, so a
  whole campaign is reproducible from one seed);
- :mod:`repro.faults.hooks` — the :class:`FaultPlane` facade the device,
  block, and fs layers consult, with a null default that keeps runs
  bit-identical when no plan is installed (the same zero-cost guarantee
  ``repro.obs`` gives);
- :mod:`repro.faults.crashpoints` — the crash-consistency harness: it
  enumerates every syscall in the Ext4 in-place migration path, kills the
  run at each one, invokes :meth:`MigrationJournal.recover`, and checks
  the file contents are byte-identical to the pre-migration state;
- :mod:`repro.faults.campaign` — seeded fault campaigns (random EIO, torn
  writes, latency spikes) over a defragmentation run, producing a survival
  report (``repro faults`` on the command line).

``crashpoints`` and ``campaign`` sit above the core/fs layers, so they are
imported lazily — the base package stays dependency-free for the layers
that consult the plane.
"""

from ..exports import lazy_exports
from .plan import KINDS, FaultPlan, FaultRule  # noqa: F401
from .hooks import (  # noqa: F401
    DEFAULT_LATENCY_SPIKE,
    FaultFire,
    FaultPlane,
    FaultPlaneStats,
    NullFaultPlane,
    arm,
    current,
    disarm,
    install,
    use,
)

#: lazy: these modules import core/fs, which import this package
_EXPORTS = {"crashpoints": "crashpoints", "campaign": "campaign"}
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    _EXPORTS,
    eager=[
        "KINDS",
        "FaultPlan",
        "FaultRule",
        "DEFAULT_LATENCY_SPIKE",
        "FaultFire",
        "FaultPlane",
        "FaultPlaneStats",
        "NullFaultPlane",
        "arm",
        "current",
        "disarm",
        "install",
        "use",
    ],
)
