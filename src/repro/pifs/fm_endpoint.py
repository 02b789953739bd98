"""FM Endpoint Extension: memory indexing, I/O access counters, migration controller."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.config import CACHE_LINE_BYTES


@dataclass(frozen=True)
class IndexEntry:
    """One lookup-table entry: which device holds an address range."""

    start_address: int
    end_address: int
    device_id: int

    def contains(self, address: int) -> bool:
        return self.start_address <= address < self.end_address


class MemoryIndexingUnit:
    """The enhanced memory indexing unit of the FM endpoint extension.

    The paper describes a "lookup table ... to facilitate address indexing
    and mapping logic, directing the memory footprint to either CXL memory or
    an on-switch buffer".  The unit maps global (host physical) addresses to
    the downstream device owning them; page-granular overrides installed by
    the migration controller take precedence over the coarse range map.
    """

    def __init__(self, page_size: int = 4096) -> None:
        self._ranges: list[IndexEntry] = []
        self._page_overrides: Dict[int, int] = {}
        self._page_size = page_size

    def add_range(self, start_address: int, end_address: int, device_id: int) -> None:
        if end_address <= start_address:
            raise ValueError("end_address must be greater than start_address")
        self._ranges.append(IndexEntry(start_address, end_address, device_id))

    def set_page_owner(self, page_id: int, device_id: int) -> None:
        """Install (or update) a page-granular override."""
        self._page_overrides[page_id] = device_id

    def device_for(self, address: int) -> int:
        """Device id owning ``address``; raises KeyError if unmapped."""
        page_id = address // self._page_size
        if page_id in self._page_overrides:
            return self._page_overrides[page_id]
        for entry in self._ranges:
            if entry.contains(address):
                return entry.device_id
        raise KeyError(f"address {address:#x} is not mapped to any device")


class MigrationController:
    """Cache-line granular migration support in the switch (§IV-B4).

    During a migration the controller holds in-flight cache lines in a
    temporal location in the switch, so only the rows sharing the in-flight
    line are blocked rather than the whole page.
    """

    #: Latency to stage one cache line in the switch's temporal buffer.
    STAGE_LATENCY_NS = 4.0

    def __init__(self) -> None:
        self._inflight_lines: Dict[int, float] = {}
        self._staged_lines = 0

    @property
    def staged_lines(self) -> int:
        return self._staged_lines

    def begin_line(self, line_address: int, now_ns: float) -> float:
        """Stage ``line_address``; returns when the line becomes available again."""
        available = now_ns + self.STAGE_LATENCY_NS
        self._inflight_lines[line_address // CACHE_LINE_BYTES] = available
        self._staged_lines += 1
        return available

    def finish_line(self, line_address: int) -> None:
        self._inflight_lines.pop(line_address // CACHE_LINE_BYTES, None)

    def access_delay(self, address: int, now_ns: float) -> float:
        """Extra delay an access pays if its cache line is being migrated."""
        available = self._inflight_lines.get(address // CACHE_LINE_BYTES)
        if available is None or available <= now_ns:
            return 0.0
        return available - now_ns


class FMEndpointExtension:
    """The fabric-manager endpoint extension of the PIFS switch."""

    def __init__(self, page_size: int = 4096) -> None:
        self.indexing = MemoryIndexingUnit(page_size=page_size)
        self.migration_controller = MigrationController()
        self.io_access_counters: Counter = Counter()

    def record_device_access(self, device_id: int) -> None:
        """Count one I/O access to ``device_id`` for device balancing."""
        self.io_access_counters[device_id] += 1

    def device_access_counts(self) -> Dict[int, int]:
        return dict(self.io_access_counters)

    def reset_counters(self) -> None:
        self.io_access_counters.clear()


__all__ = ["FMEndpointExtension", "MemoryIndexingUnit", "MigrationController", "IndexEntry"]
