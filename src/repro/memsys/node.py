"""Memory nodes (tiers) of the simulated machine."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Tuple

import numpy as np

from repro.config import CACHE_LINE_BYTES


class MemoryTier(Enum):
    """The three memory tiers of the characterization platform (Fig 3)."""

    LOCAL_DRAM = "local_dram"
    REMOTE_SOCKET = "remote_socket"
    CXL = "cxl"


@dataclass
class MemoryNode:
    """One memory node: a pool of pages with a latency/bandwidth envelope.

    The node-level envelope is used by placement policies and by the
    characterization experiments (Fig 5/6); detailed per-access timing for
    the evaluation figures is produced by the DRAM/CXL device models, which
    the SLS systems associate with nodes via ``node_id``.
    """

    node_id: int
    tier: MemoryTier
    capacity_bytes: int
    base_latency_ns: float
    bandwidth_gbps: float
    name: str = ""
    used_bytes: int = 0
    access_count: int = 0
    busy_until_ns: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"{self.tier.value}{self.node_id}"
        if self.capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        if self.bandwidth_gbps <= 0:
            raise ValueError("bandwidth must be positive")

    @property
    def free_bytes(self) -> int:
        return max(0, self.capacity_bytes - self.used_bytes)

    def can_fit(self, num_bytes: int) -> bool:
        return self.free_bytes >= num_bytes

    def allocate(self, num_bytes: int) -> None:
        """Reserve ``num_bytes`` on the node."""
        if not self.can_fit(num_bytes):
            raise MemoryError(
                f"node {self.name} cannot fit {num_bytes} bytes "
                f"({self.free_bytes} free)"
            )
        self.used_bytes += num_bytes

    def release(self, num_bytes: int) -> None:
        """Release previously reserved bytes."""
        self.used_bytes = max(0, self.used_bytes - num_bytes)

    def serve(self, start_ns: float, bytes_requested: int = CACHE_LINE_BYTES) -> float:
        """Serve an access with the node-level envelope; returns finish time.

        The envelope serializes transfers on the node's aggregate bandwidth
        and adds the tier's base latency — this is the coarse model used by
        the characterization study where only relative tier behaviour
        matters.
        """
        self.access_count += 1
        serialization = bytes_requested / self.bandwidth_gbps
        begin = max(start_ns, self.busy_until_ns)
        self.busy_until_ns = begin + serialization
        return begin + serialization + self.base_latency_ns


def placement_arrays(
    nodes: Sequence[MemoryNode], device_of=None
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched placement-resolution tables for a node set.

    Returns ``(is_local, device_id)`` arrays indexed by node id:
    ``is_local[node]`` is True for the local-DRAM tier, and
    ``device_id[node]`` holds the CXL device behind a CXL node or ``-1``
    for non-CXL tiers.  ``device_of`` maps a CXL node id to its device id —
    pass the owning engine's mapping (``SLSSystem.node_to_device``) so the
    convention stays defined in one place; the default is that mapping's
    ``node_id - 1`` layout.  Combined with
    :meth:`TieredMemorySystem.node_id_table` this resolves whole lookup
    batches to (tier, device) with two numpy gathers.
    """
    size = max(node.node_id for node in nodes) + 1 if nodes else 0
    is_local = np.zeros(size, dtype=bool)
    device_id = np.full(size, -1, dtype=np.int64)
    for node in nodes:
        is_local[node.node_id] = node.tier is MemoryTier.LOCAL_DRAM
        if node.tier is MemoryTier.CXL:
            device_id[node.node_id] = (
                device_of(node.node_id) if device_of is not None else node.node_id - 1
            )
    return is_local, device_id


__all__ = ["MemoryNode", "MemoryTier", "placement_arrays"]
