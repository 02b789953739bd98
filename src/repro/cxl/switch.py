"""Base CXL fabric switch (the non-PIFS switch used by Pond/TPP baselines).

The switch owns an upstream port per host and a downstream port per Type 3
device.  A standard CXL.mem read issued by a host traverses:

    host --[upstream link]--> switch --(forwarding)--> device access
         <--[upstream link]-- switch <-- device response

Device access latency, including the downstream link, is modelled inside
:class:`repro.cxl.device.CXLType3Device`; the switch adds its forwarding
latency and the upstream-link serialization, which is where congestion under
multi-host traffic appears.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.config import CACHE_LINE_BYTES, CXLConfig
from repro.cxl.device import CXLType3Device
from repro.cxl.fabric_manager import FabricManager
from repro.cxl.link import CXLLink
from repro.cxl.protocol import CXLMemM2S, CXLMemS2M, MemOpcode


@dataclass
class SwitchPort:
    """One physical switch port and its link."""

    port_id: int
    direction: str  # "upstream" | "downstream"
    link: CXLLink


class FabricSwitch:
    """A conventional CXL 2.0 fabric switch (no processing capability)."""

    #: Latency for the switch to decode and forward a request (ns).
    FORWARD_LATENCY_NS = 25.0

    def __init__(self, config: CXLConfig, switch_id: int = 0, name: str | None = None) -> None:
        self._config = config
        self._switch_id = switch_id
        self._name = name or f"switch{switch_id}"
        self._fm = FabricManager()
        self._upstream_ports: Dict[int, SwitchPort] = {}
        self._devices: Dict[int, CXLType3Device] = {}
        self._device_ports: Dict[int, int] = {}
        self._next_port_id = 0
        self._forwarded_requests = 0

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------
    @property
    def switch_id(self) -> int:
        return self._switch_id

    @property
    def name(self) -> str:
        return self._name

    @property
    def config(self) -> CXLConfig:
        return self._config

    @property
    def fabric_manager(self) -> FabricManager:
        return self._fm

    @property
    def forwarded_requests(self) -> int:
        return self._forwarded_requests

    def _allocate_port(self) -> int:
        port = self._next_port_id
        self._next_port_id += 1
        return port

    def attach_host(self, host_name: str) -> SwitchPort:
        """Attach a host to a new upstream port; returns the port."""
        port_id = self._allocate_port()
        link = CXLLink(
            bandwidth_gbps=self._config.upstream_port_bandwidth_gbps,
            propagation_ns=self._config.retimer_ns,
            name=f"{self._name}.usp{port_id}",
        )
        port = SwitchPort(port_id=port_id, direction="upstream", link=link)
        self._upstream_ports[port_id] = port
        self._fm.bind(port_id, host_name, "host")
        return port

    def attach_device(self, device: CXLType3Device) -> SwitchPort:
        """Attach a Type 3 device to a new downstream port; returns the port."""
        port_id = self._allocate_port()
        port = SwitchPort(port_id=port_id, direction="downstream", link=device.link)
        self._devices[device.device_id] = device
        self._device_ports[device.device_id] = port_id
        self._fm.bind(port_id, device.name, "type3")
        return port

    def devices(self) -> List[CXLType3Device]:
        return [self._devices[k] for k in sorted(self._devices)]

    def device(self, device_id: int) -> CXLType3Device:
        return self._devices[device_id]

    def upstream_port(self, port_id: int) -> Optional[SwitchPort]:
        return self._upstream_ports.get(port_id)

    def upstream_ports(self) -> List[SwitchPort]:
        return [self._upstream_ports[k] for k in sorted(self._upstream_ports)]

    # ------------------------------------------------------------------
    # Standard CXL.mem forwarding (host-centric path)
    # ------------------------------------------------------------------
    def host_read(
        self,
        host_port: SwitchPort,
        device_id: int,
        address: int,
        issue_ns: float,
        bytes_requested: int = CACHE_LINE_BYTES,
    ) -> float:
        """Service a standard host read through the switch.

        Returns the time the data arrives back at the host.
        """
        request = CXLMemM2S(
            opcode=MemOpcode.MEM_RD,
            address=address,
            spid=host_port.port_id,
            dpid=self._device_ports[device_id],
            issue_ns=issue_ns,
            data_bytes=bytes_requested,
        )
        response = self.forward(request, host_port=host_port, bytes_requested=bytes_requested)
        return response.finish_ns

    def forward(
        self,
        request: CXLMemM2S,
        host_port: SwitchPort,
        bytes_requested: int = CACHE_LINE_BYTES,
    ) -> CXLMemS2M:
        """Forward a standard request from ``host_port`` to its target device."""
        device = self._device_for_port(request.dpid)
        self._forwarded_requests += 1
        # Request crosses the upstream link (a command flit).
        at_switch = host_port.link.transfer(
            self._config.flit_bytes, request.issue_ns, op=request.opcode
        )
        at_switch += self.FORWARD_LATENCY_NS
        # Device access includes the downstream link in both directions.
        data_at_switch = device.access(
            address=request.address,
            arrival_ns=at_switch,
            is_write=request.opcode == MemOpcode.MEM_WR,
            bytes_requested=bytes_requested,
            from_switch=False,
        )
        # Response data crosses the upstream link back to the host.
        finish = host_port.link.transfer(
            bytes_requested, data_at_switch, op=MemOpcode.MEM_RD_DATA
        )
        return CXLMemS2M(
            request_id=request.message_id,
            address=request.address,
            data_valid=True,
            finish_ns=finish,
        )

    def _device_for_port(self, port_id: int) -> CXLType3Device:
        for device_id, bound_port in self._device_ports.items():
            if bound_port == port_id:
                return self._devices[device_id]
        raise KeyError(f"no device bound to port {port_id}")

    def device_port_id(self, device_id: int) -> int:
        return self._device_ports[device_id]

    def batch_kernel(self, row_bytes: int) -> "FabricSwitchKernel":
        """A flattened forwarding kernel over this switch (batch engine)."""
        return FabricSwitchKernel(self, row_bytes)

    def reset(self) -> None:
        for device in self._devices.values():
            device.reset()
        for port in self._upstream_ports.values():
            port.link.reset()
        self._forwarded_requests = 0


class SwitchPortKernel:
    """Flattened host-read path through one upstream port of one switch.

    ``host_read(device_access, channel, flat_bank, row, issue_ns)`` performs
    the scalar :meth:`FabricSwitch.host_read` arithmetic — upstream command
    flit, forwarding latency, device access (the ``access_host`` closure of
    a :class:`~repro.cxl.device.CXLDeviceKernel`), upstream data return —
    with the port-link state held in locals.  ``transfer`` exposes the raw
    upstream link for flows that serialize other message types on the same
    port.  ``link_head()`` hands out the link's busy-until time and
    queue-delay total to a caller that runs a chain of transfers inline
    (the PIFS fetch-instruction stream) and ``link_tail`` takes the chain's
    end back; ``transfer_stream`` serves a caller that reads every arrival
    of such a chain (RecNMP's NMP command bursts).  ``transfer`` and
    ``transfer_stream`` repeat the arithmetic of
    :meth:`~repro.cxl.link.CXLLink.transfer`, the reference the engine
    equivalence suite pins every kernel against.

    A host read keeps the link's timing state, its queue-delay total and
    one read count; :meth:`sync` derives the link's bytes and transfers
    (a command flit up, a row back) and the switch's forwarded requests
    from the count.
    """

    def __init__(self, switch: FabricSwitch, port: SwitchPort, row_bytes: int) -> None:
        self._switch = switch
        self._link = port.link
        self.bandwidth_gbps = port.link.bandwidth_gbps
        self.propagation_ns = port.link.propagation_ns
        self._row_bytes = row_bytes
        self._flit_bytes = switch.config.flit_bytes
        self._forward_ns = type(switch).FORWARD_LATENCY_NS
        (
            self.transfer,
            self.transfer_stream,
            self.link_head,
            self.link_tail,
            self.host_read,
            self._drain,
        ) = self._build()

    def _build(self):
        link = self._link
        bandwidth = self.bandwidth_gbps
        propagation = self.propagation_ns
        # The scalar path divides per transfer; dividing the same constants
        # once yields the identical doubles.
        flit_serialization = self._flit_bytes / bandwidth
        row_serialization = self._row_bytes / bandwidth
        forward_ns = self._forward_ns
        busy_until = link.busy_until_ns
        queued = link.total_queue_delay_ns
        # Counts since the last sync: host reads, and the raw transfers.
        reads = 0
        nbytes = 0
        transfers = 0

        def transfer(bytes_count: int, start_ns: float) -> float:
            nonlocal busy_until, queued, nbytes, transfers
            serialization = bytes_count / bandwidth
            begin = start_ns if start_ns > busy_until else busy_until
            queued += begin - start_ns
            busy_until = begin + serialization
            nbytes += bytes_count
            transfers += 1
            return busy_until + propagation

        def transfer_stream(bytes_count: int, start_ns: float, count: int) -> list:
            """``count`` equal-size transfers all issued at ``start_ns``.

            One call replaces ``count`` ``transfer`` calls; the loop body
            is the exact ``transfer`` arithmetic, so the returned arrival
            times are bit-identical.
            """
            nonlocal busy_until, queued, nbytes, transfers
            serialization = bytes_count / bandwidth
            arrivals = []
            append = arrivals.append
            busy = busy_until
            wait = queued
            for _ in range(count):
                begin = start_ns if start_ns > busy else busy
                wait += begin - start_ns
                busy = begin + serialization
                append(busy + propagation)
            busy_until = busy
            queued = wait
            nbytes += bytes_count * count
            transfers += count
            return arrivals

        def link_head():
            """``(busy_until_ns, queue_delay_total_ns)`` of the link now."""
            return busy_until, queued

        def link_tail(busy_until_ns: float, queued_ns: float, bytes_count: int, count: int) -> None:
            """Take back the end of ``count`` inline ``bytes_count`` transfers."""
            nonlocal busy_until, queued, nbytes, transfers
            busy_until = busy_until_ns
            queued = queued_ns
            nbytes += bytes_count * count
            transfers += count

        def host_read(device_access, channel: int, flat_bank: int, row: int, issue_ns: float) -> float:
            nonlocal busy_until, queued, reads
            reads += 1
            # Upstream command flit, then the switch forwarding latency.
            begin = issue_ns if issue_ns > busy_until else busy_until
            queued += begin - issue_ns
            busy_until = begin + flit_serialization
            at_switch = busy_until + propagation + forward_ns
            # Device access (includes the downstream link both ways).
            data_at_switch = device_access(channel, flat_bank, row, at_switch)
            # Response data back over the upstream link.
            begin = data_at_switch if data_at_switch > busy_until else busy_until
            queued += begin - data_at_switch
            busy_until = begin + row_serialization
            return busy_until + propagation

        def drain():
            """The link state and the counts since the last drain, zeroed."""
            nonlocal reads, nbytes, transfers
            state = busy_until, queued, reads, nbytes, transfers
            reads = nbytes = transfers = 0
            return state

        return transfer, transfer_stream, link_head, link_tail, host_read, drain

    def sync(self) -> None:
        """Write the link state back and fold in the counts since the last sync.

        The closures keep running on the same state afterwards.
        """
        busy_until, queued, reads, nbytes, transfers = self._drain()
        link = self._link
        link._busy_until_ns = busy_until
        link._queued_ns = queued
        link._bytes_transferred += reads * (self._flit_bytes + self._row_bytes) + nbytes
        link._transfers += 2 * reads + transfers
        self._switch._forwarded_requests += reads


class FabricSwitchKernel:
    """Flattened kernel over one fabric switch and its upstream ports.

    Owns one :class:`SwitchPortKernel` per upstream port (created lazily via
    :meth:`port_kernel`); each folds its host reads into the switch's
    forwarded-request count at :meth:`sync`.  Device kernels are owned by
    the caller (devices may be reachable from several switches'
    bookkeeping structures).
    """

    def __init__(self, switch: FabricSwitch, row_bytes: int) -> None:
        self._switch = switch
        self._row_bytes = row_bytes
        self._port_kernels: Dict[int, SwitchPortKernel] = {}

    @property
    def switch(self) -> FabricSwitch:
        return self._switch

    def port_kernel(self, port: SwitchPort) -> SwitchPortKernel:
        kernel = self._port_kernels.get(port.port_id)
        if kernel is None:
            kernel = SwitchPortKernel(self._switch, port, self._row_bytes)
            self._port_kernels[port.port_id] = kernel
        return kernel

    def sync(self) -> None:
        """Write every port's link state and counts back to the switch."""
        for kernel in self._port_kernels.values():
            kernel.sync()


__all__ = ["FabricSwitch", "FabricSwitchKernel", "SwitchPort", "SwitchPortKernel"]
