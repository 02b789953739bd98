"""Fabric manager: binds devices/hosts to switch ports and assigns cache IDs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class PortBinding:
    """One virtual PPB binding managed by the fabric manager."""

    port_id: int
    endpoint_name: str
    endpoint_kind: str  # "host" | "type3" | "switch"
    cache_id: int


class FabricManager:
    """Tracks the bindings of a fabric switch's ports.

    Each device recognized by the FM endpoint receives a ``cacheID``
    (§II-B2); hosts and peer switches are registered the same way so that
    routing decisions can be made purely on port bindings.
    """

    def __init__(self) -> None:
        self._bindings: Dict[int, PortBinding] = {}
        self._by_name: Dict[str, PortBinding] = {}
        self._next_cache_id = 0

    def bind(self, port_id: int, endpoint_name: str, endpoint_kind: str) -> PortBinding:
        """Bind ``endpoint_name`` of ``endpoint_kind`` to ``port_id``."""
        if endpoint_kind not in ("host", "type3", "switch"):
            raise ValueError(f"unknown endpoint kind: {endpoint_kind}")
        if port_id in self._bindings:
            raise ValueError(f"port {port_id} is already bound")
        if endpoint_name in self._by_name:
            raise ValueError(f"endpoint {endpoint_name!r} is already bound")
        binding = PortBinding(
            port_id=port_id,
            endpoint_name=endpoint_name,
            endpoint_kind=endpoint_kind,
            cache_id=self._next_cache_id,
        )
        self._next_cache_id += 1
        self._bindings[port_id] = binding
        self._by_name[endpoint_name] = binding
        return binding

    def unbind(self, port_id: int) -> None:
        binding = self._bindings.pop(port_id, None)
        if binding is None:
            raise KeyError(f"port {port_id} is not bound")
        del self._by_name[binding.endpoint_name]

    def binding_for_port(self, port_id: int) -> Optional[PortBinding]:
        return self._bindings.get(port_id)

    def bindings(self) -> List[PortBinding]:
        return sorted(self._bindings.values(), key=lambda b: b.port_id)

    def devices(self) -> List[PortBinding]:
        """All bound Type 3 devices."""
        return [b for b in self.bindings() if b.endpoint_kind == "type3"]

    def hosts(self) -> List[PortBinding]:
        """All bound hosts."""
        return [b for b in self.bindings() if b.endpoint_kind == "host"]


__all__ = ["FabricManager", "PortBinding"]
