"""Physical address decomposition for the DRAM model.

The mapping follows the common "row : bank : rank : channel : column" layout
(channel bits in the low-order positions after the cache-line offset) so that
consecutive cache lines are striped across channels — the layout that
maximizes channel-level parallelism, which both the baselines and PIFS-Rec
assume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.config import CACHE_LINE_BYTES, DRAMConfig


@dataclass(frozen=True)
class DecodedAddress:
    """The DRAM coordinates of a physical address."""

    channel: int
    rank: int
    bank: int
    row: int
    column: int

    @property
    def bank_key(self) -> tuple:
        """A hashable key identifying the (channel, rank, bank) triple."""
        return (self.channel, self.rank, self.bank)


class AddressMapping:
    """Decode physical addresses into channel/rank/bank/row/column tuples."""

    def __init__(self, config: DRAMConfig) -> None:
        self._config = config
        self._lines_per_row = max(1, config.row_size_bytes // CACHE_LINE_BYTES)

    @property
    def config(self) -> DRAMConfig:
        return self._config

    def decode(self, address: int) -> DecodedAddress:
        """Decode ``address`` (a byte address) into DRAM coordinates."""
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        cfg = self._config
        line = address // CACHE_LINE_BYTES
        channel = line % cfg.channels
        line //= cfg.channels
        column = line % self._lines_per_row
        line //= self._lines_per_row
        bank = line % cfg.banks_per_rank
        line //= cfg.banks_per_rank
        rank = line % cfg.ranks_per_channel
        line //= cfg.ranks_per_channel
        row = line
        return DecodedAddress(channel=channel, rank=rank, bank=bank, row=row, column=column)

    def lines_per_row(self) -> int:
        """Number of cache lines that fit in one DRAM row."""
        return self._lines_per_row

    def decode_batch(
        self, addresses: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`decode`: five arrays (channel, rank, bank, row,
        column) for a whole batch of byte addresses.

        Integer-exact against the scalar path; this is the resolution stage
        of the vectorized engine (one numpy pass instead of one
        :class:`DecodedAddress` object per access).
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        if addresses.size and int(addresses.min()) < 0:
            raise ValueError("addresses must be non-negative")
        cfg = self._config
        line = addresses // CACHE_LINE_BYTES
        channel = line % cfg.channels
        line = line // cfg.channels
        column = line % self._lines_per_row
        line = line // self._lines_per_row
        bank = line % cfg.banks_per_rank
        line = line // cfg.banks_per_rank
        rank = line % cfg.ranks_per_channel
        row = line // cfg.ranks_per_channel
        return channel, rank, bank, row, column

    def decode_flat_batch(self, addresses: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batch-decode to the flattened coordinates of the timing kernels.

        Returns ``(channel, flat_bank, row)`` where ``flat_bank`` indexes the
        kernel's single bank-state array:
        ``channel * (ranks_per_channel * banks_per_rank) + rank * banks_per_rank + bank``.
        Rank and bank are the low digits of the line number above the
        channel and column, so ``rank * banks_per_rank + bank`` and the row
        come out of one ``divmod`` without decoding them apart.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        if addresses.size and int(addresses.min()) < 0:
            raise ValueError("addresses must be non-negative")
        cfg = self._config
        banks_per_channel = cfg.ranks_per_channel * cfg.banks_per_rank
        channel = (addresses // CACHE_LINE_BYTES) % cfg.channels
        row, rank_bank = np.divmod(
            addresses // (CACHE_LINE_BYTES * cfg.channels * self._lines_per_row),
            banks_per_channel,
        )
        return channel, channel * banks_per_channel + rank_bank, row


__all__ = ["AddressMapping", "DecodedAddress"]
