"""A complete DRAM device (one memory node's media).

Besides the scalar :meth:`DRAMDevice.access` path, this module provides the
batched timing kernel of the vectorized engine (:class:`DRAMKernel`): the
device's bank/bus/controller state is flattened into plain lists once, a
closure services accesses with pure local-variable arithmetic, and
:meth:`DRAMKernel.sync` writes the evolved state and statistics back into
the ``Bank``/``Channel``/``DRAMController`` objects.  The kernel performs
exactly the arithmetic of the scalar path in the same order, so finish
times are bit-identical; the statistics that follow from the per-bank
outcome counts and the bus state are derived at the sync, not per access.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import CACHE_LINE_BYTES, DRAMConfig
from repro.dram.controller import DRAMController


@dataclass
class DRAMStats:
    """Summary statistics of a DRAM device."""

    requests: int
    bytes_transferred: int
    average_latency_ns: float
    row_buffer_hit_rate: float
    busy_ns: float

    def bandwidth_gbps(self, elapsed_ns: float) -> float:
        """Achieved bandwidth over ``elapsed_ns`` in GB/s (bytes per ns)."""
        if elapsed_ns <= 0:
            return 0.0
        return self.bytes_transferred / elapsed_ns


class DRAMDevice:
    """The DRAM media of one memory node (local DDR5, CXL DDR4, ...)."""

    def __init__(self, config: DRAMConfig, name: str = "dram") -> None:
        self._config = config
        self._name = name
        self._controller = DRAMController(config)

    @property
    def name(self) -> str:
        return self._name

    @property
    def config(self) -> DRAMConfig:
        return self._config

    @property
    def controller(self) -> DRAMController:
        return self._controller

    @property
    def capacity_bytes(self) -> int:
        return self._config.capacity_bytes

    def access(
        self,
        address: int,
        arrival_ns: float,
        is_write: bool = False,
        bytes_requested: int = CACHE_LINE_BYTES,
    ) -> float:
        """Access the media; return the completion time in ns."""
        return self._controller.access(
            address=address,
            arrival_ns=arrival_ns,
            is_write=is_write,
            bytes_requested=bytes_requested,
        )

    def batch_kernel(self, bytes_requested: int = CACHE_LINE_BYTES) -> "DRAMKernel":
        """A flattened read-timing kernel over this device's state.

        The kernel owns the state until :meth:`DRAMKernel.sync` is called;
        interleaving scalar :meth:`access` calls with kernel accesses before
        the sync is unsupported.
        """
        return DRAMKernel(self, bytes_requested)

    def stats(self) -> DRAMStats:
        """Return aggregate statistics since the last reset."""
        busy = sum(channel.busy_ns for channel in self._controller.channels)
        transferred = sum(channel.bytes_transferred for channel in self._controller.channels)
        return DRAMStats(
            requests=self._controller.requests,
            bytes_transferred=transferred,
            average_latency_ns=self._controller.average_latency_ns(),
            row_buffer_hit_rate=self._controller.row_buffer_hit_rate(),
            busy_ns=busy,
        )

    def reset(self) -> None:
        self._controller.reset()


class DRAMKernel:
    """Flattened read-path timing kernel over one :class:`DRAMDevice`.

    ``access(channel, flat_bank, row, arrival_ns)`` is a closure bound to
    plain list state (open row / next-ready per bank, bus-free per channel)
    and to timing constants precomputed with the exact scalar expressions,
    so each call is a handful of local float operations instead of the
    controller → channel → bank object walk.  Coordinates come from
    :meth:`~repro.dram.address_mapping.AddressMapping.decode_flat_batch`.

    Per access the kernel keeps only the timing state, the float sums whose
    value depends on addition order (per-channel bus-busy time and the
    controller's latency total, both running from the device's own values)
    and the per-bank hit/miss/conflict counts.  :meth:`sync` derives the
    rest exactly: flat banks are numbered channel by channel, so a
    channel's accesses and bytes and the controller's request count are
    sums of bank outcome counts; and the last access to a channel sets its
    bus-free time to the end of the latest burst on it, so the controller's
    last finish is the bus-free time plus the controller overhead of a
    channel touched since the previous sync.
    """

    def __init__(self, device: DRAMDevice, bytes_requested: int = CACHE_LINE_BYTES) -> None:
        self._device = device
        self._controller = device.controller
        self._channels = self._controller.channels
        timings = self._controller.config.timings
        self._bytes_requested = bytes_requested
        self._bursts = max(1, (bytes_requested + CACHE_LINE_BYTES - 1) // CACHE_LINE_BYTES)
        # Flattened state, exposed so composing kernels (the CXL device
        # kernel) can inline the read arithmetic without a call per access.
        self._banks = []
        self.bank_open: list = []
        self.bank_ready: list = []
        self.bank_hits: list = []
        self.bank_misses: list = []
        self.bank_conflicts: list = []
        for channel in self._channels:
            for bank in channel.banks:
                self._banks.append(bank)
                self.bank_open.append(-1 if bank.open_row is None else bank.open_row)
                self.bank_ready.append(bank.next_ready_ns)
                self.bank_hits.append(0)
                self.bank_misses.append(0)
                self.bank_conflicts.append(0)
        self.bus_free = [channel.bus_free_ns for channel in self._channels]
        self.busy_ns = [channel.busy_ns for channel in self._channels]
        #: The controller's latency total in a one-element list, so fused
        #: closures in other kernels add to the same running sum.
        self.latency_total = [self._controller._total_latency_ns]
        # Constants, computed with the scalar path's own expressions so the
        # floating-point values are identical.
        self.hit_ns = timings.cycles_to_ns(timings.row_hit_cycles)
        self.miss_ns = timings.cycles_to_ns(timings.row_closed_cycles)
        self.conflict_ns = timings.cycles_to_ns(timings.row_conflict_cycles)
        self.recovery_ns = timings.cycles_to_ns(timings.trtp) * 0.25
        self.burst_time = self._channels[0].burst_ns * self._bursts
        self.overhead_ns = type(self._controller).CONTROLLER_OVERHEAD_NS
        self.access = self._build()

    @property
    def mapping(self):
        return self._controller.mapping

    def _build(self):
        bank_open = self.bank_open
        bank_ready = self.bank_ready
        bank_hits = self.bank_hits
        bank_misses = self.bank_misses
        bank_conflicts = self.bank_conflicts
        bus_free = self.bus_free
        busy_ns = self.busy_ns
        latency_total = self.latency_total
        hit_ns = self.hit_ns
        miss_ns = self.miss_ns
        conflict_ns = self.conflict_ns
        recovery_ns = self.recovery_ns
        burst_time = self.burst_time
        overhead = self.overhead_ns

        def access(channel_index: int, flat_bank: int, row: int, arrival_ns: float) -> float:
            """Read ``bytes_requested`` at (channel, bank, row); returns finish."""
            ready_at = bank_ready[flat_bank]
            start = arrival_ns if arrival_ns > ready_at else ready_at
            open_row = bank_open[flat_bank]
            if open_row == row:
                latency = hit_ns
                bank_hits[flat_bank] += 1
            elif open_row < 0:
                latency = miss_ns
                bank_misses[flat_bank] += 1
            else:
                latency = conflict_ns
                bank_conflicts[flat_bank] += 1
            data_ready = start + latency
            bank_open[flat_bank] = row
            bank_ready[flat_bank] = data_ready + recovery_ns
            bus = bus_free[channel_index]
            start_burst = data_ready if data_ready > bus else bus
            finish = start_burst + burst_time
            bus_free[channel_index] = finish
            busy_ns[channel_index] += burst_time
            finish += overhead
            latency_total[0] += finish - arrival_ns
            return finish

        return access

    def mlp_bag(self, mlp: int, overhead_ns: float, accumulate_ns: float):
        """Fused MLP-grouped bag accumulation over this device (one call/bag).

        Returns ``bag(ks, lch, lfb, lrow, start_ns)``: the exact per-row
        loop of the PIFS local accumulation — rows issued in ``mlp``-sized
        groups, each group's finish is the max over its per-row DRAM
        accesses plus ``overhead_ns``, and the group then pays the SIMD
        ``accumulate_ns`` per row — with the DRAM bank/bus state *and* the
        loop in one closure, so a whole bag costs one Python call.  Built
        once per session; arithmetic and iteration order are identical to
        calling :attr:`access` per row, and so are the statistics
        :meth:`sync` derives.
        """
        bank_open = self.bank_open
        bank_ready = self.bank_ready
        bank_hits = self.bank_hits
        bank_misses = self.bank_misses
        bank_conflicts = self.bank_conflicts
        bus_free = self.bus_free
        busy_ns = self.busy_ns
        latency_total = self.latency_total
        hit_ns = self.hit_ns
        miss_ns = self.miss_ns
        conflict_ns = self.conflict_ns
        recovery_ns = self.recovery_ns
        burst_time = self.burst_time
        dram_overhead = self.overhead_ns

        def bag(ks, lch, lfb, lrow, start_ns):
            count = len(ks)
            cursor = start_ns
            finish = start_ns
            index = 0
            while index < count:
                group_end = index + mlp
                if group_end > count:
                    group_end = count
                group_finish = cursor
                for position in range(index, group_end):
                    k = ks[position]
                    flat_bank = lfb[k]
                    # --- inlined DRAMKernel.access ---
                    ready_at = bank_ready[flat_bank]
                    start = cursor if cursor > ready_at else ready_at
                    open_row = bank_open[flat_bank]
                    row = lrow[k]
                    if open_row == row:
                        latency = hit_ns
                        bank_hits[flat_bank] += 1
                    elif open_row < 0:
                        latency = miss_ns
                        bank_misses[flat_bank] += 1
                    else:
                        latency = conflict_ns
                        bank_conflicts[flat_bank] += 1
                    data_ready = start + latency
                    bank_open[flat_bank] = row
                    bank_ready[flat_bank] = data_ready + recovery_ns
                    channel = lch[k]
                    bus = bus_free[channel]
                    start_burst = data_ready if data_ready > bus else bus
                    media_done = start_burst + burst_time
                    bus_free[channel] = media_done
                    busy_ns[channel] += burst_time
                    media_done += dram_overhead
                    latency_total[0] += media_done - cursor
                    # --- end inlined block ---
                    done = media_done + overhead_ns
                    if done > group_finish:
                        group_finish = done
                cursor = group_finish
                finish = group_finish + (group_end - index) * accumulate_ns
                index = group_end
            return finish

        return bag

    def sync(self) -> None:
        """Write the kernel's state back to the device and fold in its counts.

        The bank outcome counts are deltas since the previous sync and are
        zeroed here; every other list is live state the closures keep
        using, so the kernel stays usable after a sync.
        """
        banks = self._banks
        bank_hits = self.bank_hits
        bank_misses = self.bank_misses
        bank_conflicts = self.bank_conflicts
        banks_per_channel = len(banks) // len(self._channels)
        bytes_per_access = self._bursts * CACHE_LINE_BYTES
        controller = self._controller
        last_finish = controller._last_finish_ns
        requests = 0
        for c, channel in enumerate(self._channels):
            accesses = 0
            for i in range(c * banks_per_channel, (c + 1) * banks_per_channel):
                bank = banks[i]
                hits, misses, conflicts = bank_hits[i], bank_misses[i], bank_conflicts[i]
                bank._open_row = None if self.bank_open[i] < 0 else self.bank_open[i]
                bank._next_ready_ns = self.bank_ready[i]
                bank._hits += hits
                bank._misses += misses
                bank._conflicts += conflicts
                bank_hits[i] = bank_misses[i] = bank_conflicts[i] = 0
                accesses += hits + misses + conflicts
            channel._bus_free_ns = self.bus_free[c]
            channel._busy_ns = self.busy_ns[c]
            if accesses:
                channel._bytes_transferred += accesses * bytes_per_access
                requests += accesses
                # The channel's last access finished at its bus-free time
                # plus the overhead; untouched channels finished nothing.
                finish = self.bus_free[c] + self.overhead_ns
                if finish > last_finish:
                    last_finish = finish
        controller._requests += requests
        controller._total_latency_ns = self.latency_total[0]
        controller._last_finish_ns = last_finish


__all__ = ["DRAMDevice", "DRAMKernel", "DRAMStats"]
