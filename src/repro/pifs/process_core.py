"""The Process Core (PC) of the PIFS switch (§IV-A2, §IV-A3).

The process core passively receives enhanced instructions from the host,
decodes them, repacks data fetches into standard reads, tracks in-flight
accumulations in the Accumulate Configuration Register (ACR), applies
back-pressure when the ACR is full, and drives the accumulate logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.config import PIFSConfig
from repro.pifs.instructions import PIFSInstruction
from repro.pifs.ooo import OutOfOrderAccumulator


@dataclass
class ProcessCoreStats:
    """Counters exposed by the process core."""

    backpressure_ns: float = 0.0


class ProcessCore:
    """Cycle-cost model of the PIFS process core."""

    def __init__(self, config: PIFSConfig, out_of_order: Optional[bool] = None) -> None:
        self._config = config
        # The Accumulate Configuration Register: sumtag -> candidates still
        # to accumulate.
        self._acr: Dict[int, int] = {}
        self._accumulator = OutOfOrderAccumulator(config, out_of_order=out_of_order)
        self._stats = ProcessCoreStats()
        # Earliest time a new sumtag can be admitted when the ACR is full.
        self._earliest_free_ns = 0.0

    # ------------------------------------------------------------------
    @property
    def config(self) -> PIFSConfig:
        return self._config

    @property
    def stats(self) -> ProcessCoreStats:
        return self._stats

    @property
    def accumulator(self) -> OutOfOrderAccumulator:
        return self._accumulator

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self._config.core_clock_ghz

    @property
    def active_sumtags(self) -> int:
        return len(self._acr)

    # Precomputed per-event latencies for the batched switch kernel.  The
    # expressions are the scalar paths' own (cycle-count times cycle period),
    # so the floating-point values match exactly.
    @property
    def configure_ns(self) -> float:
        """Latency of decoding one configuration instruction."""
        return self._config.decode_cycles * self.cycle_ns

    @property
    def register_fetch_ns(self) -> float:
        """Latency of decoding + repacking one data-fetch instruction."""
        return (self._config.decode_cycles + self._config.repack_cycles) * self.cycle_ns

    @property
    def element_ns(self) -> float:
        """Busy time of accumulating one row element with no context switch.

        The sequential engine flows (one sumtag in flight per switch) never
        switch accumulation contexts mid-stream, so every element costs the
        base accumulate latency in both the in-order and out-of-order
        engines.
        """
        return float(self._config.accumulate_cycles_per_element) * self.cycle_ns

    def apply_accumulation_batch(self, last_retire_ns: float) -> None:
        """Fold the retire time of the batched switch kernel's last
        accumulation into the earliest-free watermark.

        The kernel performs the timing inline and leaves the ACR in its
        between-accumulation state (empty), so the watermark is the only
        state to update.
        """
        if last_retire_ns > self._earliest_free_ns:
            self._earliest_free_ns = last_retire_ns

    # ------------------------------------------------------------------
    # Configuration path
    # ------------------------------------------------------------------
    def configure(self, instruction: PIFSInstruction, now_ns: float) -> float:
        """Program the ACR for a new accumulation; returns the ready time.

        When the ACR capacity limit is reached the core asserts back-pressure
        and the configuration is delayed until an entry retires.
        """
        if not instruction.is_config:
            raise ValueError("configure() expects a PIFS_CONFIG instruction")
        ready = now_ns
        if len(self._acr) >= self._config.acr_capacity:
            wait_until = max(self._earliest_free_ns, now_ns + self.cycle_ns)
            self._stats.backpressure_ns += wait_until - now_ns
            ready = wait_until
        ready += self._config.decode_cycles * self.cycle_ns
        self._acr[instruction.sumtag] = instruction.sum_candidate_count
        return ready

    # ------------------------------------------------------------------
    # Data-fetch path
    # ------------------------------------------------------------------
    def register_fetch(self, instruction: PIFSInstruction, now_ns: float) -> float:
        """Decode + repack a data-fetch; returns when the repacked read can issue."""
        if not instruction.is_data_fetch:
            raise ValueError("register_fetch() expects a PIFS_DATA_FETCH instruction")
        if instruction.sumtag not in self._acr:
            raise KeyError(f"sumtag {instruction.sumtag} was never configured")
        cycles = self._config.decode_cycles + self._config.repack_cycles
        return now_ns + cycles * self.cycle_ns

    def accumulate(self, sumtag: int, data_ready_ns: float, elements: int = 1) -> float:
        """Accumulate ``elements`` row vectors of ``sumtag`` arriving at ``data_ready_ns``.

        Returns the time the accumulate logic is done with this data.  The
        ACR entry's remaining counter is decremented once per element; the
        caller checks :meth:`is_complete` to detect completion.
        """
        remaining = self._acr.get(sumtag)
        if remaining is None:
            raise KeyError(f"sumtag {sumtag} was never configured")
        busy_ns = 0.0
        for _ in range(elements):
            busy_ns += self._accumulator.accumulate_element(sumtag)
        self._acr[sumtag] = max(0, remaining - elements)
        return data_ready_ns + busy_ns

    def is_complete(self, sumtag: int) -> bool:
        return self._acr.get(sumtag) == 0

    def retire(self, sumtag: int, now_ns: float) -> None:
        """Retire a completed accumulation and free its ACR slot."""
        remaining = self._acr.pop(sumtag, None)
        if remaining is None:
            raise KeyError(f"sumtag {sumtag} is not active")
        if remaining != 0:
            raise RuntimeError(
                f"sumtag {sumtag} retired with {remaining} candidates outstanding"
            )
        self._accumulator.finish_sumtag(sumtag)
        self._earliest_free_ns = max(self._earliest_free_ns, now_ns)

    def reset(self) -> None:
        self._acr.clear()
        self._accumulator.reset()
        self._stats = ProcessCoreStats()
        self._earliest_free_ns = 0.0


__all__ = ["ProcessCore", "ProcessCoreStats"]
