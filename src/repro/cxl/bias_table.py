"""The CXL asymmetric-coherence bias table (§II-B1).

CXL memory pooling manages coherence with a per-region bias: in *host bias*
a device access to the region must consult the host (extra control traffic),
in *device bias* the region is locked for the device and accesses proceed
without host involvement.  PIFS-Rec designates the embedding-table region as
device-biased so that in-switch accumulation never pays the host round trip.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict

from repro.config import PAGE_SIZE_BYTES


class BiasMode(Enum):
    HOST = "host"
    DEVICE = "device"


class BiasTable:
    """Tracks bias state at a fixed granularity (default: one 4 KB page)."""

    #: Extra latency a device pays when touching a host-biased region (ns):
    #: one ownership-request round trip over the link.
    HOST_BIAS_PENALTY_NS = 80.0

    def __init__(self, granularity_bytes: int = PAGE_SIZE_BYTES, default: BiasMode = BiasMode.HOST) -> None:
        if granularity_bytes <= 0:
            raise ValueError("granularity must be positive")
        self._granularity = granularity_bytes
        self._default = default
        self._entries: Dict[int, BiasMode] = {}
        self._flips = 0

    @property
    def granularity_bytes(self) -> int:
        return self._granularity

    @property
    def flips(self) -> int:
        """Number of bias transitions performed."""
        return self._flips

    def _region(self, address: int) -> int:
        return address // self._granularity

    def mode(self, address: int) -> BiasMode:
        """Return the bias mode governing ``address``."""
        return self._entries.get(self._region(address), self._default)

    def set_default(self, mode: BiasMode) -> None:
        """Set the bias of every region that has no entry of its own."""
        self._default = mode

    def set_mode(self, address: int, mode: BiasMode, length_bytes: int = 0) -> None:
        """Set the bias of the region(s) covering ``[address, address+length)``."""
        first = self._region(address)
        last = self._region(address + max(0, length_bytes - 1))
        for region in range(first, last + 1):
            previous = self._entries.get(region, self._default)
            if previous is not mode:
                self._flips += 1
            self._entries[region] = mode

    def device_access_penalty_ns(self, address: int) -> float:
        """Latency penalty a device access to ``address`` pays for coherence."""
        if self.mode(address) is BiasMode.DEVICE:
            return 0.0
        return self.HOST_BIAS_PENALTY_NS


__all__ = ["BiasMode", "BiasTable"]
