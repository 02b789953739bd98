"""CXL Type 3 memory expander.

The scalar access path lives in :meth:`CXLType3Device.access`; the batched
engine uses :class:`CXLDeviceKernel`, which flattens the device's link,
controller-penalty, bias-table and DRAM state into closures that replay the
same arithmetic without the per-access object walk.
"""

from __future__ import annotations

from repro.config import CACHE_LINE_BYTES, CXLConfig, DRAMConfig
from repro.cxl.bias_table import BiasMode, BiasTable
from repro.cxl.link import CXLLink
from repro.cxl.protocol import MemOpcode
from repro.dram.device import DRAMDevice, DRAMKernel


class CXLType3Device:
    """A Type 3 (memory-only) CXL device: DDR media behind a FlexBus link.

    The access path is: downstream-port link transfer of the request, the
    device-internal CXL controller overhead (the fixed "CXL access penalty
    over DRAM" of Table II is split between the two link directions and the
    controller), the DRAM media access, then the response transfer back
    through the link.
    """

    def __init__(
        self,
        device_id: int,
        dram_config: DRAMConfig,
        cxl_config: CXLConfig,
        name: str | None = None,
    ) -> None:
        self._device_id = device_id
        self._name = name or f"cxl{device_id}"
        self._dram = DRAMDevice(dram_config, name=f"{self._name}.dram")
        self._link = CXLLink(
            bandwidth_gbps=cxl_config.downstream_port_bandwidth_gbps,
            propagation_ns=cxl_config.retimer_ns,
            name=f"{self._name}.dsp",
        )
        self._bias = BiasTable()
        # The fixed penalty accounts for the device-side CXL controller and
        # the extra protocol crossings that remain after the explicit link
        # serialization below.
        self._controller_penalty_ns = cxl_config.access_penalty_ns / 2.0
        #: Extra per-read controller latency of a degraded device (fault
        #: injection: media retraining, a DIMM running in fail-slow mode).
        self._read_penalty_ns = 0.0
        self._reads = 0
        self._writes = 0

    @property
    def device_id(self) -> int:
        return self._device_id

    @property
    def name(self) -> str:
        return self._name

    @property
    def dram(self) -> DRAMDevice:
        return self._dram

    @property
    def link(self) -> CXLLink:
        return self._link

    @property
    def bias_table(self) -> BiasTable:
        return self._bias

    @property
    def capacity_bytes(self) -> int:
        return self._dram.capacity_bytes

    def degrade_reads(self, extra_ns: float) -> None:
        """Mark the device read-degraded: every read pays ``extra_ns`` more.

        Applied at session setup (before the vector kernels snapshot the
        controller parameters) so both engines see the identical slowdown.
        Writes and flows that bypass the device controller (RecNMP's
        in-expander NMP command path) are unaffected.
        """
        if extra_ns < 0:
            raise ValueError("extra_ns must be non-negative")
        self._read_penalty_ns = self._read_penalty_ns + extra_ns

    @property
    def reads(self) -> int:
        return self._reads

    @property
    def writes(self) -> int:
        return self._writes

    def access(
        self,
        address: int,
        arrival_ns: float,
        is_write: bool = False,
        bytes_requested: int = CACHE_LINE_BYTES,
        from_switch: bool = True,
    ) -> float:
        """Access the device; return the time the response is available.

        ``from_switch`` selects whether the requester sits at the switch's
        downstream port (PIFS process core, one link crossing) or is the host
        (request and response both cross the downstream link; the upstream
        link is accounted for by the caller).
        """
        if is_write:
            self._writes += 1
        else:
            self._reads += 1
        bias_penalty = 0.0 if from_switch is False else self._bias.device_access_penalty_ns(address)
        penalty_ns = self._controller_penalty_ns
        if not is_write:
            # Grouped as (controller + read_penalty) to match the batch
            # kernel, which pre-folds the two at build time.
            penalty_ns = penalty_ns + self._read_penalty_ns
        request_arrival = self._link.transfer(
            CACHE_LINE_BYTES,
            arrival_ns,
            op=MemOpcode.MEM_WR if is_write else MemOpcode.MEM_RD,
        )
        media_start = request_arrival + penalty_ns + bias_penalty
        media_done = self._dram.access(
            address=address,
            arrival_ns=media_start,
            is_write=is_write,
            bytes_requested=bytes_requested,
        )
        response_done = self._link.transfer(
            bytes_requested, media_done, op=MemOpcode.MEM_RD_DATA
        )
        return response_done

    def batch_kernel(self, bytes_requested: int) -> "CXLDeviceKernel":
        """A flattened read-timing kernel over this device (batch engine)."""
        return CXLDeviceKernel(self, bytes_requested)

    def reset(self) -> None:
        self._dram.reset()
        self._link.reset()
        self._reads = 0
        self._writes = 0


class CXLDeviceKernel:
    """Flattened read path of one :class:`CXLType3Device`.

    Two access closures are exposed, mirroring the two ``from_switch``
    flavours of the scalar path:

    * ``access_host(channel, flat_bank, row, arrival)`` — requester is the
      host behind the fabric switch (no bias-table penalty);
    * ``access_switch(channel, flat_bank, row, address, arrival)`` — the
      requester sits in the switch (PIFS process core), so the bias table
      is consulted for ``address``.

    DRAM coordinates come from the device mapping's ``decode_flat_batch``.
    All arithmetic matches :meth:`CXLType3Device.access` exactly; the link
    crossings (and ``link_transfer``/``link_transfer_seq``) repeat the
    arithmetic of :meth:`~repro.cxl.link.CXLLink.transfer`, their reference.

    An access keeps the link's busy-until time, its queue-delay total, the
    DRAM timing state and sums (see :class:`~repro.dram.device.DRAMKernel`)
    and one count of device reads.  :meth:`sync` derives the rest: each
    read is one request and one response on the link, so the link's bytes
    and transfers follow from the read count; ``link_transfer`` and
    ``link_transfer_seq`` count their own.
    """

    def __init__(self, device: CXLType3Device, bytes_requested: int) -> None:
        self._device = device
        self._bytes_requested = bytes_requested
        self.dram = device.dram.batch_kernel(bytes_requested)
        (
            self.access_host,
            self.access_switch,
            self.link_transfer,
            self.link_transfer_seq,
            self._drain,
        ) = self._build()

    @property
    def mapping(self):
        return self._device.dram.controller.mapping

    def _build(self):
        device = self._device
        link = device.link
        bandwidth = link.bandwidth_gbps
        propagation = link.propagation_ns
        # Per-constant divisions match the scalar per-transfer divisions.
        request_serialization = CACHE_LINE_BYTES / bandwidth
        response_serialization = self._bytes_requested / bandwidth
        # The DRAM read block below is inlined from DRAMKernel.access (kept
        # in sync with it; the engine equivalence suite guards both): one
        # closure call per device access instead of three.
        dram = self.dram
        bank_open = dram.bank_open
        bank_ready = dram.bank_ready
        bank_hits = dram.bank_hits
        bank_misses = dram.bank_misses
        bank_conflicts = dram.bank_conflicts
        bus_free = dram.bus_free
        dram_busy_ns = dram.busy_ns
        dram_latency = dram.latency_total
        hit_ns = dram.hit_ns
        miss_ns = dram.miss_ns
        conflict_ns = dram.conflict_ns
        recovery_ns = dram.recovery_ns
        burst_time = dram.burst_time
        dram_overhead = dram.overhead_ns
        # The kernel paths are read-only, so the read-degradation penalty is
        # folded into the constant (same grouping as the scalar read path).
        penalty = device._controller_penalty_ns + device._read_penalty_ns
        bias = device.bias_table
        granularity = bias.granularity_bytes
        default_pen = 0.0 if bias._default is BiasMode.DEVICE else bias.HOST_BIAS_PENALTY_NS
        region_pen = {
            region: (0.0 if mode is BiasMode.DEVICE else bias.HOST_BIAS_PENALTY_NS)
            for region, mode in bias._entries.items()
        }
        uniform_bias = not region_pen
        busy_until = link.busy_until_ns
        queued = link.total_queue_delay_ns
        # Counts since the last sync: device reads, and the raw transfers.
        reads = 0
        nbytes = 0
        transfers = 0

        def access_host(channel: int, flat_bank: int, row: int, arrival_ns: float) -> float:
            nonlocal busy_until, queued, reads
            reads += 1
            # Request crosses the downstream link ...
            begin = arrival_ns if arrival_ns > busy_until else busy_until
            queued += begin - arrival_ns
            busy_until = begin + request_serialization
            # ... then the device controller; the scalar path adds the (zero)
            # host-side bias penalty after it, and x + 0.0 == x for the
            # non-negative timestamps here.
            media_start = busy_until + propagation + penalty + 0.0
            # --- inlined DRAMKernel.access ---
            ready_at = bank_ready[flat_bank]
            start = media_start if media_start > ready_at else ready_at
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
            bus = bus_free[channel]
            start_burst = data_ready if data_ready > bus else bus
            media_done = start_burst + burst_time
            bus_free[channel] = media_done
            dram_busy_ns[channel] += burst_time
            media_done += dram_overhead
            dram_latency[0] += media_done - media_start
            # --- end inlined block ---
            # Response crosses the link back to the switch.
            begin = media_done if media_done > busy_until else busy_until
            queued += begin - media_done
            busy_until = begin + response_serialization
            return busy_until + propagation

        def access_switch(
            channel: int, flat_bank: int, row: int, address: int, arrival_ns: float
        ) -> float:
            nonlocal busy_until, queued, reads
            reads += 1
            if uniform_bias:
                bias_penalty = default_pen
            else:
                bias_penalty = region_pen.get(address // granularity, default_pen)
            begin = arrival_ns if arrival_ns > busy_until else busy_until
            queued += begin - arrival_ns
            busy_until = begin + request_serialization
            media_start = busy_until + propagation + penalty + bias_penalty
            # --- inlined DRAMKernel.access (see access_host) ---
            ready_at = bank_ready[flat_bank]
            start = media_start if media_start > ready_at else ready_at
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
            bus = bus_free[channel]
            start_burst = data_ready if data_ready > bus else bus
            media_done = start_burst + burst_time
            bus_free[channel] = media_done
            dram_busy_ns[channel] += burst_time
            media_done += dram_overhead
            dram_latency[0] += media_done - media_start
            # --- end inlined block ---
            begin = media_done if media_done > busy_until else busy_until
            queued += begin - media_done
            busy_until = begin + response_serialization
            return busy_until + propagation

        def link_transfer(bytes_count: int, start_ns: float) -> float:
            """Raw link transfer for flows that bypass the device controller
            (RecNMP's in-expander NMP path uses link and media separately)."""
            nonlocal busy_until, queued, nbytes, transfers
            serialization = bytes_count / bandwidth
            begin = start_ns if start_ns > busy_until else busy_until
            queued += begin - start_ns
            busy_until = begin + serialization
            nbytes += bytes_count
            transfers += 1
            return busy_until + propagation

        def link_transfer_seq(bytes_count: int, starts, offset_ns: float = 0.0) -> list:
            """One raw link transfer per ``starts[i] + offset_ns``, in order.

            Batch counterpart of calling ``link_transfer`` once per start;
            same arithmetic, so arrivals and link state are bit-identical
            (RecNMP's per-device NMP command bursts use it, with
            ``offset_ns`` carrying the switch forwarding latency)."""
            nonlocal busy_until, queued, nbytes, transfers
            serialization = bytes_count / bandwidth
            arrivals = []
            append = arrivals.append
            busy = busy_until
            wait = queued
            for arrival in starts:
                start_ns = arrival + offset_ns
                begin = start_ns if start_ns > busy else busy
                wait += begin - start_ns
                busy = begin + serialization
                append(busy + propagation)
            busy_until = busy
            queued = wait
            nbytes += bytes_count * len(starts)
            transfers += len(starts)
            return arrivals

        def drain():
            """The link state and the counts since the last drain, zeroed."""
            nonlocal reads, nbytes, transfers
            state = busy_until, queued, reads, nbytes, transfers
            reads = nbytes = transfers = 0
            return state

        return access_host, access_switch, link_transfer, link_transfer_seq, drain

    def sync(self) -> None:
        """Write link and DRAM state back into the device and fold in its counts.

        The closures keep running on the same state afterwards.
        """
        busy_until, queued, reads, nbytes, transfers = self._drain()
        device = self._device
        device._reads += reads
        link = device.link
        link._busy_until_ns = busy_until
        link._queued_ns = queued
        # Each read is a request line down the link and a response back.
        link._bytes_transferred += reads * (CACHE_LINE_BYTES + self._bytes_requested) + nbytes
        link._transfers += 2 * reads + transfers
        self.dram.sync()


__all__ = ["CXLType3Device", "CXLDeviceKernel"]
