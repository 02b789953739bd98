"""The PIFS fabric switch: a CXL fabric switch with a process core.

The switch combines the base :class:`~repro.cxl.switch.FabricSwitch` with
the process core and the on-switch buffer, and implements the full
in-switch accumulation flow of Fig 8:

1. the host issues one configuration instruction (SumCandidateCount + the
   reserved result address) and one data-fetch instruction per row candidate;
2. the memopcode checker routes them to the process core, which decodes and
   repacks each fetch into a standard read whose SPID is the switch;
3. reads are issued concurrently to the downstream Type 3 devices (or served
   from the on-switch buffer);
4. arriving rows are accumulated (out of order when enabled) and, when the
   SumCandidateCounter reaches zero, the result is written back to the
   reserved host address with a CXL.cache D2H message that the host snoops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.config import CXLConfig, PIFSConfig
from repro.cxl.protocol import MemOpcode
from repro.cxl.switch import FabricSwitch, FabricSwitchKernel, SwitchPort
from repro.pifs.instructions import PIFSInstruction, encode_vector_size, repack_instruction
from repro.pifs.onswitch_buffer import OnSwitchBuffer
from repro.pifs.process_core import ProcessCore


@dataclass(frozen=True)
class RowFetch:
    """One row candidate to accumulate: its global address and owning device."""

    address: int
    device_id: int
    device_address: Optional[int] = None

    @property
    def target_address(self) -> int:
        return self.device_address if self.device_address is not None else self.address


@dataclass
class AccumulationOutcome:
    """Result of one in-switch accumulation."""

    result_ready_ns: float
    host_notified_ns: float


class PIFSSwitch(FabricSwitch):
    """A fabric switch augmented with PIFS-Rec processing capability."""

    #: ID used as the SPID of repacked reads (the switch itself).
    SWITCH_SPID = 0xFFF

    def __init__(
        self,
        cxl_config: CXLConfig,
        pifs_config: PIFSConfig,
        row_bytes: int,
        switch_id: int = 0,
        name: Optional[str] = None,
        compute_enabled: bool = True,
    ) -> None:
        super().__init__(cxl_config, switch_id=switch_id, name=name or f"pifs{switch_id}")
        self._pifs_config = pifs_config
        self._row_bytes = row_bytes
        self._compute_enabled = compute_enabled and pifs_config.process_core
        self.process_core = ProcessCore(pifs_config)
        self.buffer = OnSwitchBuffer(pifs_config.on_switch_buffer, row_bytes)
        self._next_sumtag = 0

    # ------------------------------------------------------------------
    @property
    def pifs_config(self) -> PIFSConfig:
        return self._pifs_config

    @property
    def row_bytes(self) -> int:
        return self._row_bytes

    @property
    def compute_enabled(self) -> bool:
        """CNV bit: whether this switch can execute in-switch accumulation."""
        return self._compute_enabled

    def allocate_sumtag(self) -> int:
        """Allocate the next sumtag (9-bit, wraps around)."""
        sumtag = self._next_sumtag
        self._next_sumtag = (self._next_sumtag + 1) % 512
        return sumtag

    # ------------------------------------------------------------------
    def accumulate(
        self,
        rows: Sequence[RowFetch],
        host_port: SwitchPort,
        issue_ns: float,
        result_address: int = 0,
        sumtag: Optional[int] = None,
        notify_host: bool = True,
        per_row_overhead_ns: float = 0.0,
    ) -> AccumulationOutcome:
        """Run one complete in-switch accumulation for ``rows``.

        Returns the :class:`AccumulationOutcome`, whose ``host_notified_ns``
        is the time the accumulated result lands at the host's reserved
        address (or ``result_ready_ns`` when ``notify_host`` is False, e.g.
        for sub-sums forwarded to another switch).
        """
        if not rows:
            raise ValueError("accumulate() needs at least one row")
        if not self._compute_enabled:
            raise RuntimeError(f"switch {self.name} has no process core (CNV=0)")
        tag = self.allocate_sumtag() if sumtag is None else sumtag

        # Step 1: configuration instruction crosses the upstream link.
        config_instr = PIFSInstruction.configuration(
            result_address=result_address,
            sum_candidate_count=len(rows),
            sumtag=tag,
            spid=host_port.port_id,
            issue_ns=issue_ns,
        )
        config_at_switch = host_port.link.transfer(
            self._config.flit_bytes, issue_ns, op=MemOpcode.PIFS_CONFIG
        )
        configured_ns = self.process_core.configure(config_instr, config_at_switch)

        # Step 2: one data-fetch instruction per row, pipelined on the link.
        last_done = configured_ns
        for row in rows:
            fetch = PIFSInstruction.data_fetch(
                address=row.address,
                row_bytes=self._row_bytes,
                sumtag=tag,
                spid=host_port.port_id,
                dpid=self.device_port_id(row.device_id),
                issue_ns=configured_ns,
            )
            # Fetch instructions are pipelined on the upstream link; the
            # link's busy-until bookkeeping provides the serialization.
            instr_at_switch = host_port.link.transfer(
                self._config.slot_bytes, configured_ns, op=MemOpcode.PIFS_DATA_FETCH
            )
            ready_to_issue = self.process_core.register_fetch(fetch, instr_at_switch)
            # Extra per-row switch work, e.g. BEACON's address translation
            # logic, which PIFS-Rec avoids by operating on physical addresses.
            ready_to_issue += per_row_overhead_ns

            # Step 3: on-switch buffer lookup, then device fetch on a miss.
            if self.buffer.lookup(row.address):
                data_ready = ready_to_issue + self.buffer.hit_latency_ns()
            else:
                repacked = repack_instruction(
                    fetch,
                    switch_spid=self.SWITCH_SPID,
                    device_dpid=self.device_port_id(row.device_id),
                    device_address=row.target_address,
                )
                device = self.device(row.device_id)
                data_ready = device.access(
                    address=repacked.address,
                    arrival_ns=ready_to_issue,
                    bytes_requested=self._row_bytes,
                    from_switch=True,
                )
                self.buffer.insert(row.address)

            # Step 4: accumulate the arriving row.
            done = self.process_core.accumulate(tag, data_ready)
            last_done = max(last_done, done)

        if not self.process_core.is_complete(tag):
            raise RuntimeError(f"sumtag {tag} did not complete")
        self.process_core.retire(tag, last_done)

        # Step 5: write the result back to the host's reserved address.
        if notify_host:
            notified = host_port.link.transfer(
                self._row_bytes, last_done, op=MemOpcode.MEM_RD_DATA
            )
        else:
            notified = last_done
        return AccumulationOutcome(result_ready_ns=last_done, host_notified_ns=notified)

    def batch_kernel(self, row_bytes: int) -> "PIFSSwitchKernel":
        """A flattened accumulate kernel over this switch (batch engine)."""
        return PIFSSwitchKernel(self, row_bytes)

    def reset(self) -> None:
        super().reset()
        self.process_core.reset()
        self.buffer.reset_stats()


class PIFSSwitchKernel(FabricSwitchKernel):
    """Flattened in-switch accumulation path of one :class:`PIFSSwitch`.

    :meth:`accumulate` replays the scalar :meth:`PIFSSwitch.accumulate` flow
    — configuration flit, per-row fetch instruction on the upstream link,
    on-switch buffer lookup, device fetch on a miss, accumulate-logic busy
    time, result writeback — using the port and device kernels and plain
    float arithmetic.  The buffer probe runs inline in the row loop, on
    the buffer's own resident map and HTR counts: it is the vector
    engine's only per-row buffer probe, for every policy.  A miss inserts
    through :meth:`~repro.pifs.onswitch_buffer.OnSwitchBuffer.insert`, and
    an HTR curation is the buffer's own ``_curate``, run after the
    triggering row's count and before its insert, as in the scalar
    :meth:`~repro.pifs.onswitch_buffer.OnSwitchBuffer.lookup`.  Buffer
    hits, misses and accesses since the last curation accumulate here
    until :meth:`sync`.  Timing and all observable state (buffer contents
    and statistics, device counters, the process core's earliest-free
    watermark, sumtag sequence) match the scalar path exactly; the
    transient ACR entry, which every scalar accumulation creates and
    retires before returning, is elided.
    """

    def __init__(self, switch: PIFSSwitch, row_bytes: int) -> None:
        super().__init__(switch, row_bytes)
        # Fail on unsupported row sizes exactly like the scalar instruction
        # builder would.
        encode_vector_size(row_bytes)
        if not switch.compute_enabled:
            raise RuntimeError(f"switch {switch.name} has no process core (CNV=0)")
        if switch.process_core.config.acr_capacity < 1:
            # A zero-capacity ACR back-pressures every configuration; the
            # flattened path assumes the (universal) >= 1 case.
            raise RuntimeError("vectorized accumulate requires ACR capacity >= 1")
        # A disabled buffer (policy ``none`` or no capacity) misses every
        # lookup and ignores every insert.  Resize the buffer before
        # building a kernel: the kernel snapshots its policy flags.
        buffer = switch.buffer
        policy = buffer.config.policy
        self._buffer = buffer
        self._buffer_off = policy == "none" or buffer.capacity_rows == 0
        self._htr = policy == "htr"
        self._lru = policy == "lru"
        self._htr_interval = buffer.config.htr_interval
        # Buffer hits, misses and accesses since the last HTR curation,
        # folded into the buffer at sync.
        self._buffer_hits = 0
        self._buffer_misses = 0
        self._since_curate = buffer._accesses_since_curate
        core = switch.process_core
        self._configure_ns = core.configure_ns
        self._register_fetch_ns = core.register_fetch_ns
        self._element_ns = core.element_ns
        self._hit_latency_ns = switch.buffer.hit_latency_ns()
        self._slot_bytes = switch.config.slot_bytes
        self._flit_bytes = switch.config.flit_bytes
        self._next_sumtag = switch._next_sumtag
        self._last_retire_ns = 0.0

    def accumulate(
        self,
        port,
        ks: Sequence[int],
        devs: Sequence[int],
        addr: Sequence[int],
        cch: Sequence[int],
        cfb: Sequence[int],
        crow: Sequence[int],
        device_access,
        issue_ns: float,
        per_row_overhead_ns: float = 0.0,
        notify_host: bool = True,
    ) -> Tuple[float, float]:
        """One in-switch accumulation over pre-resolved row positions.

        ``ks`` are resolved positions indexing the dispatch unit's columns
        ``addr``/``cch``/``cfb``/``crow`` (address and CXL-DRAM coordinates)
        and ``devs`` the owning device id aligned with ``ks``; ``port`` is
        the issuing host port's
        :class:`~repro.cxl.switch.SwitchPortKernel` and ``device_access``
        the per-device ``access_switch`` closures indexed by device id.
        Returns ``(result_ready_ns, host_notified_ns)``.

        The fetch-instruction stream crosses the upstream link inside the
        row loop: every instruction is issued at ``configured_ns``, so
        after the first each one begins where the previous one finished,
        and the chain costs one add per row (plus one onto the port's
        queue-delay total, in the scalar order).  The port hands out its
        link head and takes the chain's end back.  An arrival time is
        computed only for a miss and for the last hit: buffer hits finish
        in instruction order, so the last hit stands in for all of them,
        leaving per hit row only the buffer probe (a residency test and,
        under HTR, a count increment and a touched-set add).
        """
        count = len(ks)
        if not count:
            raise ValueError("accumulate() needs at least one row")
        transfer = port.transfer
        # Step 1: sumtag allocation + configuration instruction.
        self._next_sumtag = (self._next_sumtag + 1) % 512
        configured_ns = transfer(self._flit_bytes, issue_ns) + self._configure_ns
        # Step 2, inline below: the fetch-instruction chain on the upstream
        # link.  Only the first instruction can wait for configured_ns.
        busy, wait = port.link_head()
        if configured_ns > busy:
            busy = configured_ns
        serialization = self._slot_bytes / port.bandwidth_gbps
        propagation = port.propagation_ns
        # Steps 3-4: per-row buffer/device data path and accumulation.
        register_ns = self._register_fetch_ns
        element_ns = self._element_ns
        buffer = self._buffer
        last_done = configured_ns
        # The link busy-until time at the last hit's instruction; no hit yet.
        hit_busy = -1.0
        if self._buffer_off:
            # Every row misses and nothing is inserted: no probe per row.
            self._buffer_misses += count
            self._since_curate += count
            for i in range(count):
                wait += busy - configured_ns
                busy += serialization
                k = ks[i]
                # The scalar path adds the register latency and the per-row
                # overhead (BEACON's address translation) as separate sums.
                data_ready = device_access[devs[i]](
                    cch[k],
                    cfb[k],
                    crow[k],
                    addr[k],
                    ((busy + propagation) + register_ns) + per_row_overhead_ns,
                )
                done = data_ready + element_ns
                if done > last_done:
                    last_done = done
        else:
            # The buffer probe, inline, in the scalar lookup's order:
            # residency test, then HTR's count, touched-set add and
            # curation trigger; a miss fetches from the device and then
            # inserts through the buffer's own policy.
            entries = buffer._entries
            htr = self._htr
            lru = self._lru
            move_to_end = entries.move_to_end if lru else None
            counts = buffer._counts
            count_of = counts.get
            touch = buffer._touched.add
            insert = buffer.insert
            interval = self._htr_interval
            # The row index whose count triggers the next HTR curation.
            trigger = max(interval - self._since_curate - 1, 0)
            misses = 0
            for i in range(count):
                wait += busy - configured_ns
                busy += serialization
                k = ks[i]
                address = addr[k]
                hit = address in entries
                if htr:
                    counts[address] = count_of(address, 0) + 1
                    touch(address)
                    if i == trigger:
                        trigger += interval
                        buffer._curate()
                if hit:
                    hit_busy = busy
                    if lru:
                        move_to_end(address)
                else:
                    misses += 1
                    data_ready = device_access[devs[i]](
                        cch[k],
                        cfb[k],
                        crow[k],
                        address,
                        ((busy + propagation) + register_ns) + per_row_overhead_ns,
                    )
                    insert(address)
                    done = data_ready + element_ns
                    if done > last_done:
                        last_done = done
            self._buffer_misses += misses
            self._buffer_hits += count - misses
            if htr:
                self._since_curate = count + interval - 1 - trigger
            else:
                self._since_curate += count
        port.link_tail(busy, wait, self._slot_bytes, count)
        if hit_busy >= 0.0:
            arrival = hit_busy + propagation
            done = ((arrival + register_ns) + per_row_overhead_ns + self._hit_latency_ns) + element_ns
            if done > last_done:
                last_done = done
        if last_done > self._last_retire_ns:
            self._last_retire_ns = last_done
        # Step 5: result writeback to the host's reserved address.
        if notify_host:
            notified = transfer(self._row_bytes, last_done)
        else:
            notified = last_done
        return last_done, notified

    def sync(self) -> None:
        """Fold buffered statistics back into the switch's components."""
        super().sync()
        switch = self._switch
        switch._next_sumtag = self._next_sumtag
        switch.process_core.apply_accumulation_batch(self._last_retire_ns)
        buffer = self._buffer
        buffer._hits += self._buffer_hits
        buffer._misses += self._buffer_misses
        buffer._accesses_since_curate = self._since_curate
        self._buffer_hits = 0
        self._buffer_misses = 0


__all__ = ["PIFSSwitch", "PIFSSwitchKernel", "RowFetch", "AccumulationOutcome"]
