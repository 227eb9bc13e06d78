"""Paper-calibrated device presets (Table 2 of the paper).

``make_device("flash")`` etc. return fresh instances with capacities scaled
down from the paper's hardware so simulations stay fast; the relative cost
structure (latency ratios, parallelism, queuing behaviour) is what matters
for reproducing the result shapes.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..errors import InvalidArgument
from .base import StorageDevice
from .flash import FlashSsd
from .hdd import HddDevice
from .microsd import MicroSdDevice
from .optane import OptaneSsd

DEVICE_PRESETS: Dict[str, Callable[..., StorageDevice]] = {
    "hdd": HddDevice,        # Samsung 7200RPM 1TB
    "microsd": MicroSdDevice,  # Samsung EVO A1 128GB
    "flash": FlashSsd,       # Samsung 850 PRO 256GB (SATA)
    "optane": OptaneSsd,     # Intel Optane 905P 960GB (NVMe)
}


def make_device(kind: str, capacity: Optional[int] = None) -> StorageDevice:
    """Create one of the paper's four devices by name.

    Without ``capacity`` the device keeps its own class's default size.
    """
    try:
        cls = DEVICE_PRESETS[kind]
    except KeyError:
        raise InvalidArgument(
            f"unknown device {kind!r}; choose from {sorted(DEVICE_PRESETS)}"
        ) from None
    return cls() if capacity is None else cls(capacity=capacity)
