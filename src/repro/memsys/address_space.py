"""Flat embedding address space shared by hosts, switches and devices.

Embedding tables are laid out contiguously: table ``t`` starts at
``t * table_stride``.  The address of a row is then
``table_base + row_index * row_bytes``.  The same addresses index the page
table of the tiered memory system and, after placement, are translated to a
device-local physical address.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.config import PAGE_SIZE_BYTES, ModelConfig


@dataclass(frozen=True)
class AddressSpace:
    """Address arithmetic for a model's embedding tables."""

    num_tables: int
    num_embeddings: int
    row_bytes: int
    page_size: int = PAGE_SIZE_BYTES

    @classmethod
    def for_model(cls, model: ModelConfig) -> "AddressSpace":
        return cls(
            num_tables=model.num_tables,
            num_embeddings=model.num_embeddings,
            row_bytes=model.embedding_row_bytes,
        )

    @property
    def table_bytes(self) -> int:
        return self.num_embeddings * self.row_bytes

    @property
    def table_stride(self) -> int:
        """Table stride, aligned up to a page boundary."""
        stride = self.table_bytes
        remainder = stride % self.page_size
        if remainder:
            stride += self.page_size - remainder
        return stride

    @property
    def total_bytes(self) -> int:
        return self.table_stride * self.num_tables

    @property
    def total_pages(self) -> int:
        return self.total_bytes // self.page_size

    @property
    def rows_per_page(self) -> int:
        return max(1, self.page_size // self.row_bytes)

    def row_address(self, table: int, row: int) -> int:
        """Byte address of ``row`` in ``table``."""
        if not 0 <= table < self.num_tables:
            raise ValueError(f"table {table} out of range [0, {self.num_tables})")
        if not 0 <= row < self.num_embeddings:
            raise ValueError(f"row {row} out of range [0, {self.num_embeddings})")
        return table * self.table_stride + row * self.row_bytes

    def row_addresses(self, table: int, rows: np.ndarray) -> np.ndarray:
        """Byte addresses of every row in ``rows`` (vectorized ``row_address``).

        One bounds check over the whole array replaces the per-row Python
        loop; the hot workload builder calls this once per (batch, table).
        """
        if not 0 <= table < self.num_tables:
            raise ValueError(f"table {table} out of range [0, {self.num_tables})")
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (int(rows.min()) < 0 or int(rows.max()) >= self.num_embeddings):
            raise ValueError(f"row index out of range [0, {self.num_embeddings})")
        return table * self.table_stride + rows * self.row_bytes

    def locate(self, address: int) -> Tuple[int, int]:
        """Inverse mapping: return (table, row) for a row-aligned address."""
        if address < 0 or address >= self.total_bytes:
            raise ValueError(f"address {address} outside the embedding space")
        table = address // self.table_stride
        offset = address - table * self.table_stride
        row = offset // self.row_bytes
        if row >= self.num_embeddings:
            raise ValueError(f"address {address} falls in table padding")
        return table, row


__all__ = ["AddressSpace"]
