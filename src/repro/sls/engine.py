"""Shared simulation engine for all SLS systems.

The engine provides:

* :class:`MemoryBackends` — constructs the detailed device models (local
  DDR5, CXL Type 3 expanders, fabric switches, host ports) for a
  :class:`~repro.config.SystemConfig`;
* :class:`SLSSystem` — the abstract base every evaluated system extends.  It
  owns the thread-lane scheduler that replays a workload, the page placement
  helpers (capacity-order, hotness-based, CXL-only), the timing helpers for
  host-side local and CXL accesses, and the page-management maintenance hook
  invoked every ``migration_epoch_accesses`` lookups.

Two execution engines replay a workload (:meth:`SLSSystem.set_engine`):

* ``"scalar"`` (default) — every lookup walks the full object stack; this
  is the reference implementation and the oracle.
* ``"vector"`` — lookups are resolved as numpy batches and timed through
  the flattened layer kernels (:mod:`repro.sls.vector`), producing
  numerically identical results several times faster.  Built-in systems
  implement :meth:`SLSSystem.process_request_vector`; systems that do not
  opt in (``supports_vector_engine`` stays False) silently keep the scalar
  path.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import ENGINES, PAGE_SIZE_BYTES, SystemConfig
from repro.cxl.device import CXLType3Device
from repro.cxl.switch import FabricSwitch, SwitchPort
from repro.dram.device import DRAMDevice
from repro.memsys.node import MemoryNode, MemoryTier
from repro.memsys.page import page_id_of
from repro.memsys.tiered import TieredMemorySystem
from repro.obs.log import get_logger
from repro.obs.recorder import NULL_RECORDER
from repro.pifs.onswitch_buffer import OnSwitchBuffer
from repro.pifs.switch import PIFSSwitch
from repro.sls.result import SimResult
from repro.traces.workload import SLSRequest, SLSWorkload

LOG = get_logger("sls.engine")


class MemoryBackends:
    """The detailed device models behind one simulated machine."""

    def __init__(
        self,
        system: SystemConfig,
        row_bytes: int,
        use_pifs_switch: bool = False,
    ) -> None:
        self.system = system
        self.row_bytes = row_bytes
        # One local DRAM per host: in a multi-host deployment every host is a
        # separate server with its own CPU-attached DIMMs; only the CXL pool
        # behind the fabric switches is shared.
        self.local_dram_per_host = [
            DRAMDevice(system.local_dram, name=f"local_ddr5_h{host}")
            for host in range(system.num_hosts)
        ]
        self.local_dram = self.local_dram_per_host[0]

        num_switches = system.num_fabric_switches
        self.switches: List[FabricSwitch] = []
        for switch_id in range(num_switches):
            if use_pifs_switch:
                switch: FabricSwitch = PIFSSwitch(
                    system.cxl, system.pifs, row_bytes=row_bytes, switch_id=switch_id
                )
            else:
                switch = FabricSwitch(system.cxl, switch_id=switch_id)
            self.switches.append(switch)

        # Devices are distributed round-robin across switches.
        self.devices: List[CXLType3Device] = []
        self.device_switch: Dict[int, int] = {}
        for device_id in range(system.num_cxl_devices):
            device = CXLType3Device(device_id, system.cxl_dram, system.cxl)
            switch_id = device_id % num_switches
            self.switches[switch_id].attach_device(device)
            self.devices.append(device)
            self.device_switch[device_id] = switch_id

        # Each host gets one upstream port per switch it talks to; hosts are
        # assigned a "home" switch round-robin.
        self.host_ports: Dict[Tuple[int, int], SwitchPort] = {}
        self.host_home_switch: Dict[int, int] = {}
        for host_id in range(system.num_hosts):
            self.host_home_switch[host_id] = host_id % num_switches
            for switch_id, switch in enumerate(self.switches):
                port = switch.attach_host(f"host{host_id}@sw{switch_id}")
                self.host_ports[(host_id, switch_id)] = port

    def host_port(self, host_id: int, switch_id: Optional[int] = None) -> SwitchPort:
        if switch_id is None:
            switch_id = self.host_home_switch[host_id]
        return self.host_ports[(host_id, switch_id)]

    def local_dram_of_host(self, host_id: int) -> DRAMDevice:
        return self.local_dram_per_host[host_id % len(self.local_dram_per_host)]

    def switch_of_device(self, device_id: int) -> FabricSwitch:
        return self.switches[self.device_switch[device_id]]

    def reset(self) -> None:
        for dram in self.local_dram_per_host:
            dram.reset()
        for switch in self.switches:
            switch.reset()


class SLSSystem(ABC):
    """Base class for every evaluated SLS system."""

    name = "base"
    #: Host-side overhead of a load serviced by local DRAM (core + caches).
    HOST_LOCAL_OVERHEAD_NS = 30.0
    #: Host-side overhead of handling a CXL load response (demotion into the
    #: cache hierarchy, poll completion).
    HOST_CXL_OVERHEAD_NS = 60.0
    #: Latency to accumulate one row on the host.
    HOST_ACCUMULATE_NS_PER_ROW = 1.0
    #: Outstanding-miss capacity of one host thread (limits host-side MLP).
    HOST_MLP = 4

    #: Whether this system implements :meth:`process_request_vector`.  A
    #: subclass that overrides :meth:`process_request` must either provide a
    #: matching vector twin or reset this to False — otherwise the vector
    #: engine would replay the parent's request flow.
    supports_vector_engine = False

    def __init__(self, system: SystemConfig, use_pifs_switch: bool = False) -> None:
        self.system = system
        self.use_pifs_switch = use_pifs_switch
        self.backends: Optional[MemoryBackends] = None
        self.tiered: Optional[TieredMemorySystem] = None
        self.workload: Optional[SLSWorkload] = None
        #: Row bytes the host-centric paths moved from CXL to the host.
        self._bytes_to_host = 0
        self._lookups_since_maintenance = 0
        self.engine = "scalar"
        self._vector = None
        self._vector_fallback_reason: Optional[str] = None
        self._session_mutators: Tuple = ()
        self._packet_config = None
        self._net_fabric = None
        #: Observability sink; the shared NullRecorder unless
        #: :meth:`set_recorder` installs a TraceRecorder.  Hot paths gate on
        #: ``self.obs.enabled`` (one attribute check) and never call into
        #: the recorder when recording is off.
        self.obs = NULL_RECORDER

    # ------------------------------------------------------------------
    # Session mutation (fault injection)
    # ------------------------------------------------------------------
    def set_session_mutators(self, mutators: Sequence) -> "SLSSystem":
        """Install callables applied to the system at every session setup.

        Each mutator is called with the system after the backends,
        placement and :meth:`prepare` exist but *before* the vector
        context builds its flattened kernels — so a mutation of the device
        models (a degraded link, a slower device, a smaller on-switch
        buffer) is baked into both the scalar and the vector engine
        identically.  The scenario layer's fault injection is implemented
        on this hook.
        """
        self._session_mutators = tuple(mutators)
        return self

    # ------------------------------------------------------------------
    # Engine selection
    # ------------------------------------------------------------------
    def set_engine(self, engine: str) -> "SLSSystem":
        """Select the replay fidelity: ``"scalar"``, ``"vector"`` or ``"packet"``.

        Takes effect at the next :meth:`begin_session`/:meth:`run`.  The
        vector engine produces numerically identical results for every
        system that opts in via ``supports_vector_engine``; systems that do
        not are executed on the scalar path regardless of the knob.  The
        packet engine runs the scalar request flow with ``repro.net`` port
        queues attached to every fabric link — bit-identical to scalar in
        the uncongested limit, and additionally reporting queue-depth
        timelines, drops/retries and backpressure via ``SimResult.net``.
        """
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of: {', '.join(ENGINES)}")
        self.engine = engine
        return self

    def set_packet_config(self, config) -> "SLSSystem":
        """Install the packet-tier configuration (``None`` restores defaults).

        Only consulted when the engine is ``"packet"``; the default
        :class:`~repro.net.fabric.PacketConfig` is the uncongested limit
        (unbounded buffers).
        """
        self._packet_config = config
        return self

    def set_recorder(self, recorder) -> "SLSSystem":
        """Install an observability recorder (``None`` restores the no-op).

        Recording is strictly observational: the recorder only receives
        timestamps the engine already computed, so results are bit-identical
        with recording off and on.
        """
        self.obs = NULL_RECORDER if recorder is None else recorder
        return self

    # ------------------------------------------------------------------
    # Workload execution
    # ------------------------------------------------------------------
    def begin_session(self, workload: SLSWorkload) -> None:
        """Reset state and build backends/placement for ``workload``.

        Factored out of :meth:`run` so an online serving loop can drive the
        system request by request (:meth:`service_request`) instead of
        replaying the whole workload closed-loop.
        """
        with self.obs.phase("session.begin"):
            self._begin_session(workload)

    def _begin_session(self, workload: SLSWorkload) -> None:
        self.workload = workload
        self._bytes_to_host = 0
        self._lookups_since_maintenance = 0
        self.backends = MemoryBackends(
            self.system, workload.model.embedding_row_bytes, use_pifs_switch=self.use_pifs_switch
        )
        self.tiered = self.build_placement(workload)
        self.prepare(workload)
        # Fault-injection mutations run after the machine fully exists and
        # before the vector kernels snapshot its parameters, so both
        # engines observe an identical (degraded) machine.
        for mutator in self._session_mutators:
            mutator(self)
        self._vector = None
        self._vector_fallback_reason = None
        if self.engine == "vector" and self.supports_vector_engine:
            from repro.sls.vector import VectorContext, VectorUnsupportedError

            try:
                self._vector = VectorContext(self)
            except VectorUnsupportedError as error:
                # The scalar path supports everything; remember why the fast
                # path was unavailable for introspection.
                self._vector_fallback_reason = str(error)
                LOG.info(
                    "%s: vector engine unavailable, scalar fallback (%s)",
                    self.name, error,
                )
        self._net_fabric = None
        if self.engine == "packet":
            from repro.net.fabric import PacketFabric

            # Attached after the session mutators so a degraded link/hop is
            # what the port queues observe: fault injection changes service
            # rates *and* queue occupancy under packet fidelity.
            fabric = PacketFabric(self._packet_config)
            fabric.attach(self)
            self._net_fabric = fabric

    def service_request(
        self, request: SLSRequest, start_ns: float, host_id: Optional[int] = None
    ) -> float:
        """Serve one request at ``start_ns``; return its completion time (ns).

        The per-request counterpart of :meth:`run`: callers own the clock
        (arrival/queueing/batching policy) and get back the finish time of
        this request alone instead of only workload aggregates.  Page-
        management maintenance triggered by the epoch counter lands on the
        serving lane — the caller's next dispatch on this lane starts after
        the stall — rather than stalling every lane the way the closed-loop
        replay does.  :meth:`begin_session` must have been called.

        With an active vector context the request is timed as a batch of
        one through :meth:`service_batch_vector`, which resolves it first;
        otherwise it runs on the scalar path.
        """
        host = request.host_id % self.system.num_hosts if host_id is None else host_id
        if self._vector is not None:
            return self.service_batch_vector([request], start_ns, host)[0]
        finish_ns = self.process_request(request, start_ns, host)
        return finish_ns + self._close_request(request, start_ns, finish_ns, f"host{host}")

    def service_batch_vector(
        self, requests: Sequence[SLSRequest], start_ns: float, host_id: int
    ) -> List[float]:
        """Serve a dispatched batch back-to-back on one lane (vector engine).

        Batched twin of calling :meth:`service_request` once per request
        with each start at the previous completion: returns the per-request
        completion times, from which the caller recovers every request's
        cursor (request ``i`` starts at ``result[i - 1]``).  The batch
        becomes the vector context's dispatch unit
        (:meth:`VectorContext.load_window
        <repro.sls.vector.VectorContext.load_window>`) right before it is
        timed, so the context never holds more than this batch.
        Maintenance triggered by the epoch counter lands on the serving
        lane between requests exactly as in the sequential path.  Requires
        an active vector context (``engine="vector"`` and
        :meth:`begin_session` succeeded building one).
        """
        vector = self._vector
        if vector is None:
            raise RuntimeError("service_batch_vector requires an active vector context")
        vector.load_window(requests)
        process = self.process_request_vector
        close_request = self._close_request
        track = f"host{host_id}"
        cursor = start_ns
        completions: List[float] = []
        for request in requests:
            begin_ns = cursor
            cursor = process(request, cursor, host_id)
            cursor += close_request(request, begin_ns, cursor, track)
            completions.append(cursor)
        return completions

    def _close_request(
        self,
        request: SLSRequest,
        start_ns: float,
        finish_ns: float,
        track: str,
        lanes: Optional[List[float]] = None,
    ) -> float:
        """Bookkeeping after one request; returns the maintenance stall (ns).

        Records the request span, adds the request's lookups to the epoch
        counter and, when an epoch closes, has the vector context record
        the pages it located and runs :meth:`maintenance`.  Served
        requests pause their own lane: maintenance starts at ``finish_ns``
        and the caller adds the returned stall to that lane.  The
        closed-loop replay passes its ``lanes`` instead: maintenance starts
        once every lane is idle and stalls all of them in place.
        """
        obs = self.obs
        if obs.enabled:
            obs.span(
                "request", start_ns, finish_ns, track=track,
                args={"id": request.request_id, "lookups": request.num_candidates},
            )
            obs.count("engine.requests")
        self._lookups_since_maintenance += request.num_candidates
        if self._lookups_since_maintenance < self.system.page_mgmt.migration_epoch_accesses:
            return 0.0
        self._lookups_since_maintenance = 0
        if self._vector is not None:
            self._vector.flush_tiered()
        pause_ns = finish_ns if lanes is None else max(lanes)
        stall_ns = self.maintenance(pause_ns)
        if stall_ns > 0:
            if obs.enabled:
                obs.span(
                    "maintenance", pause_ns, pause_ns + stall_ns,
                    track=track if lanes is None else "maintenance", cat="maintenance",
                )
            if lanes is not None:
                lanes[:] = [lane + stall_ns for lane in lanes]
        return stall_ns

    def finish_session(self, total_ns: float) -> SimResult:
        """Assemble the :class:`SimResult` for the session ended at ``total_ns``.

        The vector context is synced into the device models and dropped:
        it belongs to the session, so a finished system holds none.
        """
        if self._vector is not None:
            self._vector.flush_all()
            self._vector = None
        result = self._build_result(self.workload, total_ns)
        obs = self.obs
        if obs.enabled:
            with obs.phase("session.finish"):
                obs.span(
                    "session", 0.0, total_ns, track="session",
                    args={
                        "system": self.name,
                        "engine": self.engine,
                        "requests": result.requests,
                        "lookups": result.lookups,
                    },
                )
                obs.add("engine.local_rows", result.local_rows)
                obs.add("engine.cxl_rows", result.cxl_rows)
                obs.add("engine.bytes_to_host", result.bytes_to_host)
                if result.buffer_hits or result.buffer_misses:
                    obs.add("cache.switch_buffer.hits", result.buffer_hits)
                    obs.add("cache.switch_buffer.misses", result.buffer_misses)
                if result.migrations:
                    obs.add("engine.migrations", result.migrations)
                if self._net_fabric is not None:
                    from repro.obs.bridge import bridge_net_events

                    bridge_net_events(obs, self._net_fabric, result.net)
        return result

    def run(self, workload: SLSWorkload) -> SimResult:
        """Replay ``workload`` on this system and return the result."""
        self.begin_session(workload)

        num_hosts = self.system.num_hosts
        threads_per_host = self.system.host_threads
        lanes = [0.0] * (num_hosts * threads_per_host)
        tracks = [
            f"h{lane // threads_per_host}.t{lane % threads_per_host}"
            if threads_per_host > 1 else f"host{lane}"
            for lane in range(len(lanes))
        ]
        # Per-host round-robin so every host spreads its own requests over its
        # own threads (lanes) independently of the global request order.
        host_cursor = [0] * num_hosts

        vector = self._vector
        process = self.process_request if vector is None else self.process_request_vector
        close_request = self._close_request
        # Every workload is replayed window by window (an eager workload is
        # one window): only the active window's requests and, under the
        # vector engine, its address column and one resolved block are
        # resident.  Lane state, maintenance epochs and the vector kernels
        # persist across windows, so the result does not depend on where
        # the windows are cut.
        with self.obs.phase("engine.execute"):
            for window in workload.iter_windows():
                if vector is not None:
                    vector.load_window(window)
                for request in window:
                    host_id = request.host_id % num_hosts
                    lane = host_id * threads_per_host + host_cursor[host_id] % threads_per_host
                    host_cursor[host_id] += 1
                    start_ns = lanes[lane]
                    finish_ns = lanes[lane] = process(request, start_ns, host_id)
                    close_request(request, start_ns, finish_ns, tracks[lane], lanes)
        return self.finish_session(max(lanes))

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    @abstractmethod
    def build_placement(self, workload: SLSWorkload) -> TieredMemorySystem:
        """Create the tiered memory system and install the initial placement."""

    def prepare(self, workload: SLSWorkload) -> None:
        """Optional extra preparation after placement (default: none)."""

    @abstractmethod
    def process_request(self, request: SLSRequest, start_ns: float, host_id: int) -> float:
        """Process one row-accumulation request; return its finish time."""

    def process_request_vector(self, request: SLSRequest, start_ns: float, host_id: int) -> float:
        """Vector-engine twin of :meth:`process_request`.

        Only invoked when a :class:`~repro.sls.vector.VectorContext` is
        active (``supports_vector_engine`` and ``engine="vector"``).  The
        default delegates to the scalar path so partial overrides stay
        correct.
        """
        return self.process_request(request, start_ns, host_id)

    def prepare_vector(self, ctx) -> None:
        """Hook: bind system-specific state to a fresh vector context.

        Called at the end of :class:`~repro.sls.vector.VectorContext`
        construction; systems bind per-host closures over the context's
        kernels here (PIFS-Rec's local bag closures, RecNMP's route table).
        """

    def maintenance(self, now_ns: float) -> float:
        """Periodic page-management work; returns the stall imposed on lanes."""
        return 0.0

    # ------------------------------------------------------------------
    # Placement helpers
    # ------------------------------------------------------------------
    def _make_nodes(self) -> List[MemoryNode]:
        system = self.system
        nodes = [
            MemoryNode(
                node_id=0,
                tier=MemoryTier.LOCAL_DRAM,
                capacity_bytes=system.local_dram_capacity_bytes,
                base_latency_ns=system.local_dram_base_latency_ns,
                bandwidth_gbps=system.local_dram.peak_bandwidth_gbps,
                name="local_dram",
            )
        ]
        for device_id in range(system.num_cxl_devices):
            nodes.append(
                MemoryNode(
                    node_id=device_id + 1,
                    tier=MemoryTier.CXL,
                    capacity_bytes=system.cxl_dram.capacity_bytes,
                    base_latency_ns=system.local_dram_base_latency_ns + system.cxl.access_penalty_ns,
                    bandwidth_gbps=min(
                        system.cxl.downstream_port_bandwidth_gbps,
                        system.cxl_dram.peak_bandwidth_gbps,
                    ),
                    name=f"cxl{device_id}",
                )
            )
        return nodes

    def node_to_device(self, node_id: int) -> int:
        """Map a CXL node id to its device id (node 0 is local DRAM)."""
        if node_id <= 0:
            raise ValueError("node 0 is local DRAM, not a CXL device")
        return node_id - 1

    def _local_page_budget(self) -> int:
        return self.system.local_dram_capacity_bytes // PAGE_SIZE_BYTES

    #: Addresses the profiling pass turns into one list of page ids.
    PROFILE_CHUNK = 8192

    def _profile_page_hotness(self, workload: SLSWorkload) -> Counter:
        """Count page accesses across the whole workload (profiling pass).

        One C-level ``Counter.update`` per chunk of the workload's address
        arrays, in request order; chunking bounds the page-id list, whose
        Python ints cost several times the array, while a window's array
        is as long as the window.  The counter keeps the scalar loop's
        counts *and* first-occurrence order (the tie-breaker of
        ``most_common``), so placements do not depend on how the workload
        cuts its address arrays.
        """
        hotness: Counter = Counter()
        for addresses in workload.iter_address_arrays():
            pages = addresses // PAGE_SIZE_BYTES
            for lo in range(0, len(pages), self.PROFILE_CHUNK):
                hotness.update(pages[lo:lo + self.PROFILE_CHUNK].tolist())
        return hotness

    def place_capacity_order(
        self, workload: SLSWorkload, interleave_spill: bool = True
    ) -> TieredMemorySystem:
        """Pond-style placement: fill local DRAM in address order, spill to CXL.

        With ``interleave_spill`` the spilled pages are striped across the CXL
        devices; without it they are assigned in contiguous blocks (whole
        tables land on single devices), which is the unbalanced starting point
        the embedding-spreading policy fixes (Fig 13 b).
        """
        tiered = TieredMemorySystem(self._make_nodes(), migration_mode=self.system.page_mgmt.migration_mode)
        budget = self._local_page_budget()
        num_cxl = self.system.num_cxl_devices
        total_pages = workload.address_space.total_pages
        spill_pages = max(1, total_pages - budget)
        block = (spill_pages + num_cxl - 1) // num_cxl
        placement: Dict[int, int] = {}
        spill_index = 0
        for page in range(total_pages):
            if page < budget:
                placement[page] = 0
            elif interleave_spill:
                placement[page] = 1 + (page % num_cxl)
            else:
                placement[page] = 1 + min(num_cxl - 1, spill_index // block)
                spill_index += 1
        tiered.install_placement(placement)
        return tiered

    def place_hotness_order(self, workload: SLSWorkload) -> TieredMemorySystem:
        """PM placement: hottest pages local, cold pages interleaved over CXL."""
        tiered = TieredMemorySystem(self._make_nodes(), migration_mode=self.system.page_mgmt.migration_mode)
        budget = self._local_page_budget()
        num_cxl = self.system.num_cxl_devices
        hotness = self._profile_page_hotness(workload)
        ranked = [page for page, _ in hotness.most_common()]
        hot_set = set(ranked[:budget])
        placement: Dict[int, int] = {}
        spill_index = 0
        for page in range(workload.address_space.total_pages):
            if page in hot_set:
                placement[page] = 0
            else:
                placement[page] = 1 + (spill_index % num_cxl)
                spill_index += 1
        tiered.install_placement(placement)
        return tiered

    def place_cxl_only(self, workload: SLSWorkload) -> TieredMemorySystem:
        """BEACON-style placement: everything lives in CXL memory."""
        tiered = TieredMemorySystem(self._make_nodes(), migration_mode=self.system.page_mgmt.migration_mode)
        num_cxl = self.system.num_cxl_devices
        placement = {
            page: 1 + (page % num_cxl) for page in range(workload.address_space.total_pages)
        }
        tiered.install_placement(placement)
        return tiered

    # ------------------------------------------------------------------
    # Timing helpers (host-centric paths)
    # ------------------------------------------------------------------
    def device_of_address(self, address: int) -> int:
        """CXL device id holding ``address`` (placement must be non-local)."""
        node = self.tiered.node_of_address(address)
        if node.tier is MemoryTier.LOCAL_DRAM:
            raise ValueError("address is in local DRAM")
        return self.node_to_device(node.node_id)

    def is_local(self, address: int) -> bool:
        return self.tiered.node_of_address(address).tier is MemoryTier.LOCAL_DRAM

    def host_local_access(self, address: int, start_ns: float, host_id: int = 0) -> float:
        """A host load served by that host's local DRAM."""
        self.tiered.record_access(address)
        dram = self.backends.local_dram_of_host(host_id)
        finish = dram.access(address, start_ns, bytes_requested=self.backends.row_bytes)
        return finish + self.HOST_LOCAL_OVERHEAD_NS

    def host_cxl_access(self, address: int, start_ns: float, host_id: int) -> float:
        """A host load served by a CXL device through the fabric switch."""
        self._bytes_to_host += self.backends.row_bytes
        self.tiered.record_access(address)
        device_id = self.device_of_address(address)
        switch = self.backends.switch_of_device(device_id)
        port = self.backends.host_port(host_id, switch.switch_id)
        finish = switch.host_read(
            port, device_id, address, start_ns, bytes_requested=self.backends.row_bytes
        )
        return finish + self.HOST_CXL_OVERHEAD_NS

    def host_accumulate_bag(
        self, addresses: Sequence[int], start_ns: float, host_id: int
    ) -> float:
        """Host-centric SLS for one bag: grouped loads plus SIMD accumulation."""
        cursor = start_ns
        for group_start in range(0, len(addresses), self.HOST_MLP):
            group = addresses[group_start : group_start + self.HOST_MLP]
            group_finish = cursor
            for address in group:
                address = int(address)
                if self.is_local(address):
                    finish = self.host_local_access(address, cursor, host_id)
                else:
                    finish = self.host_cxl_access(address, cursor, host_id)
                group_finish = max(group_finish, finish)
            cursor = group_finish + len(group) * self.HOST_ACCUMULATE_NS_PER_ROW
        return cursor

    def host_accumulate_bag_vector(self, request: SLSRequest, start_ns: float, host_id: int) -> float:
        """Vector-engine twin of :meth:`host_accumulate_bag`.

        :meth:`VectorContext.locate <repro.sls.vector.VectorContext.locate>`
        resolves the request's block to (page, node, DRAM coordinates)
        first; the MLP-group timing below runs on the flattened kernels with
        the exact scalar arithmetic.
        """
        ctx = self._vector
        begin, end = ctx.locate(request.request_id)
        local_flags, row_device = ctx.local_flags, ctx.row_device
        lch, lfb, lrow = ctx.lch, ctx.lfb, ctx.lrow
        cch, cfb, crow = ctx.cch, ctx.cfb, ctx.crow
        dram_access = ctx.local_access[host_id % ctx.num_local_drams]
        host_reads = ctx.port_host_read[host_id]
        dev_access = ctx.dev_access_host
        device_switch = ctx.device_switch
        local_overhead = self.HOST_LOCAL_OVERHEAD_NS
        cxl_overhead = self.HOST_CXL_OVERHEAD_NS
        accumulate_ns = self.HOST_ACCUMULATE_NS_PER_ROW
        mlp = self.HOST_MLP

        cursor = start_ns
        index = begin
        while index < end:
            group_end = index + mlp
            if group_end > end:
                group_end = end
            group_finish = cursor
            for k in range(index, group_end):
                if local_flags[k]:
                    finish = dram_access(lch[k], lfb[k], lrow[k], cursor) + local_overhead
                else:
                    device_id = row_device[k]
                    finish = (
                        host_reads[device_switch[device_id]](
                            dev_access[device_id], cch[k], cfb[k], crow[k], cursor
                        )
                        + cxl_overhead
                    )
                if finish > group_finish:
                    group_finish = finish
            cursor = group_finish + (group_end - index) * accumulate_ns
            index = group_end

        local_rows = sum(local_flags[begin:end])
        cxl_rows = end - begin - local_rows
        self._bytes_to_host += cxl_rows * ctx.row_bytes
        obs = self.obs
        if obs.enabled:
            obs.add("kernel.local_dram.invocations", local_rows)
            obs.add("kernel.switch_host_read.invocations", cxl_rows)
            obs.add("kernel.elements", end - begin)
        return cursor

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------
    def row_buffers(self) -> List[OnSwitchBuffer]:
        """The buffers whose own lookup counts are the result's buffer hits and misses."""
        return [switch.buffer for switch in self.backends.switches if isinstance(switch, PIFSSwitch)]

    def _build_result(self, workload: SLSWorkload, total_ns: float) -> SimResult:
        """The result; each count is read from the one component that keeps it."""
        device_counts = {
            device.device_id: device.reads + device.writes for device in self.backends.devices
        }
        stall_cycles = 0.0
        backpressure = 0.0
        for switch in self.backends.switches:
            if isinstance(switch, PIFSSwitch):
                stall_cycles += switch.process_core.accumulator.stats.stall_cycles
                backpressure += switch.process_core.stats.backpressure_ns
        buffers = self.row_buffers()
        rows = dict.fromkeys(MemoryTier, 0)
        for node in self.tiered.nodes():
            rows[node.tier] += node.access_count
        migration_stats = self.tiered.migration_stats
        net = self._net_fabric.finalize() if self._net_fabric is not None else None
        return SimResult(
            system=self.name,
            total_ns=total_ns,
            requests=len(workload),
            lookups=workload.total_lookups,
            local_rows=rows[MemoryTier.LOCAL_DRAM],
            cxl_rows=rows[MemoryTier.CXL],
            remote_socket_rows=rows[MemoryTier.REMOTE_SOCKET],
            buffer_hits=sum(buffer.hits for buffer in buffers),
            buffer_misses=sum(buffer.misses for buffer in buffers),
            migrations=migration_stats.migrations,
            migration_cost_ns=migration_stats.cost_ns,
            stall_cycles=stall_cycles,
            backpressure_ns=backpressure,
            bytes_to_host=self._bytes_to_host,
            device_access_counts=device_counts,
            net=net,
        )


__all__ = ["ENGINES", "MemoryBackends", "SLSSystem"]
