"""Page arithmetic of the embedding address space."""

from __future__ import annotations

from repro.config import PAGE_SIZE_BYTES


def page_id_of(address: int, page_size: int = PAGE_SIZE_BYTES) -> int:
    """Return the page id containing byte ``address``."""
    if address < 0:
        raise ValueError("address must be non-negative")
    return address // page_size


__all__ = ["page_id_of"]
