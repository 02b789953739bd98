"""Out-of-order accumulation engine (§IV-A5).

Row data can arrive from the CXL devices out of order with respect to the
accumulation requests (sumtags) they belong to.  An in-order engine stalls
whenever the arriving row belongs to a different sumtag than the one held in
the accumulation register.  The out-of-order engine instead moves the
partially accumulated vector to one of a small set of swap registers during
the first half of the cycle and processes the new row in the second half.
When all swap registers are occupied the intermediate result spills to the
on-switch SRAM, costing extra cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import PIFSConfig


@dataclass
class OoOStats:
    """Cycle accounting of the accumulation engine."""

    stall_cycles: float = 0.0


class OutOfOrderAccumulator:
    """Cycle-cost model of the (out-of-order) accumulate logic."""

    def __init__(self, config: PIFSConfig, out_of_order: Optional[bool] = None) -> None:
        self._config = config
        self._out_of_order = config.out_of_order if out_of_order is None else out_of_order
        self._active_sumtag: Optional[int] = None
        self._swap_occupancy = 0
        self._stats = OoOStats()

    @property
    def out_of_order(self) -> bool:
        return self._out_of_order

    @property
    def stats(self) -> OoOStats:
        return self._stats

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self._config.core_clock_ghz

    def accumulate_element(self, sumtag: int) -> float:
        """Account for accumulating one row element of ``sumtag``.

        Returns the number of nanoseconds the accumulate logic is busy for
        this element, including any stall or swap overhead.
        """
        cfg = self._config
        cycles = float(cfg.accumulate_cycles_per_element)
        if self._active_sumtag is None:
            self._active_sumtag = sumtag
        elif self._active_sumtag != sumtag:
            if self._out_of_order:
                # Move the current partial sum to a swap register (half cycle)
                # unless all swap registers are full, in which case it spills
                # to the on-switch SRAM.
                if self._swap_occupancy < cfg.swap_registers:
                    self._swap_occupancy += 1
                    cycles += cfg.swap_cycles * 0.5
                else:
                    cycles += cfg.sram_spill_cycles
                self._active_sumtag = sumtag
            else:
                # In-order engine: drain the pipeline before switching to the
                # other accumulation context.
                stall = cfg.inorder_stall_cycles
                self._stats.stall_cycles += stall
                cycles += stall
                self._active_sumtag = sumtag
        return cycles * self.cycle_ns

    def finish_sumtag(self, sumtag: int) -> None:
        """Mark ``sumtag`` complete, freeing its swap register if it used one."""
        if self._active_sumtag == sumtag:
            self._active_sumtag = None
        elif self._swap_occupancy > 0:
            self._swap_occupancy -= 1

    def reset(self) -> None:
        self._active_sumtag = None
        self._swap_occupancy = 0
        self._stats = OoOStats()


__all__ = ["OutOfOrderAccumulator", "OoOStats"]
