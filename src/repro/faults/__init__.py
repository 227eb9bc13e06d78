"""repro.faults — deterministic fault injection and crash consistency.

The paper's safety argument (Section 4.2.2) is that user-level migration
survives sudden power-off because range lists and buffered data are kept
until success.  This subsystem exists to *attack* that argument — and the
rest of the stack — systematically:

- :mod:`repro.faults.plan` — the seeded :class:`FaultPlan` DSL: declarative
  rules triggered by op-count, virtual time, LBA range, op kind, or
  probability (each probabilistic rule gets a dedicated RNG stream, so a
  whole campaign is reproducible from one seed);
- :mod:`repro.faults.hooks` — the plane the device, block, and fs layers
  consult, with a null default that keeps runs bit-identical when no plan
  is installed (the same zero-cost guarantee ``repro.obs`` gives);
- :mod:`repro.faults.plane` — the live :class:`FaultPlane` a plan compiles
  into, loaded only where a plane is armed;
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
from .hooks import (  # noqa: F401
    DEFAULT_LATENCY_SPIKE,
    FaultFire,
    NullFaultPlane,
    arm,
    current,
    disarm,
    install,
    use,
)

#: lazy: the plan DSL and the live plane load only where a plane is
#: armed, and ``crashpoints``/``campaign`` import core/fs, which import
#: this package
_EXPORTS = {
    "KINDS": "plan",
    "FaultPlan": "plan",
    "FaultRule": "plan",
    "FaultPlane": "plane",
    "FaultPlaneStats": "plane",
    "crashpoints": "crashpoints",
    "campaign": "campaign",
}
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    _EXPORTS,
    eager=[
        "DEFAULT_LATENCY_SPIKE",
        "FaultFire",
        "NullFaultPlane",
        "arm",
        "current",
        "disarm",
        "install",
        "use",
    ],
)
