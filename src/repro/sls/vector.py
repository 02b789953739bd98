"""Vectorized session context for the batch simulation engine.

The scalar engine resolves and times every lookup through the full object
stack (tiered page table → device models → switch/link objects), costing
dozens of Python calls per row.  The vectorized engine keeps the *scalar
path as the oracle* and restructures the work in two stages:

1. **Batched resolution** — before each dispatch unit is timed (a replay
   window, or a served batch) its requests' addresses are concatenated and
   resolved with a handful of numpy passes: page ids, DRAM coordinates
   under both the local-DDR5 and the CXL-DDR4 mappings, and — per
   placement generation — the page → node gather through
   :meth:`~repro.memsys.tiered.TieredMemorySystem.node_id_table`.
2. **Flattened timing kernels** — the stateful per-access arithmetic runs
   through the layer kernels (:class:`~repro.dram.device.DRAMKernel`,
   :class:`~repro.cxl.device.CXLDeviceKernel`,
   :class:`~repro.cxl.switch.SwitchPortKernel`,
   :class:`~repro.pifs.switch.PIFSSwitchKernel`), closures over plain local
   state that perform exactly the scalar arithmetic in the same order, so
   every finish time is bit-identical to the scalar engine.

Access-counter side effects (the page count column and the per-node
counters that feed the page-management policies) are buffered as a list
of page ids and flushed through
:meth:`~repro.memsys.tiered.TieredMemorySystem.record_pages`, two
bincounts, before every maintenance pass and at session end, preserving
every placement decision the scalar engine would make.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Tuple

import numpy as np

from repro.config import PAGE_SIZE_BYTES
from repro.memsys.node import placement_arrays


class VectorUnsupportedError(RuntimeError):
    """The session's configuration has no vectorized fast path.

    Raised during :class:`VectorContext` construction (e.g. a row size the
    enhanced-instruction format cannot encode); the engine falls back to the
    scalar path, which supports everything.
    """


class VectorContext:
    """Per-session timing kernels plus the resolution arrays of one dispatch unit.

    Construction builds the kernels and resolves nothing; the engine calls
    :meth:`load_window` with every dispatch unit before timing it.
    """

    def __init__(self, system) -> None:
        self.system = system
        self.tiered = system.tiered
        backends = system.backends
        self.backends = backends
        self.row_bytes = backends.row_bytes

        # Placement tables (node id -> tier / device) and the lazily
        # re-gathered page -> node window with its precomputed splits.
        is_local, node_device = placement_arrays(self.tiered.nodes(), system.node_to_device)
        self._node_is_local_np = is_local
        self._node_device_np = node_device
        self.node_is_local: List[bool] = is_local.tolist()
        self.node_device: List[int] = node_device.tolist()

        # ------------------------------------------------------------------
        # Stage 2: flattened timing kernels over the backend state.
        # ------------------------------------------------------------------
        row_bytes = self.row_bytes
        try:
            self.local_dram_kernels = [
                dram.batch_kernel(row_bytes) for dram in backends.local_dram_per_host
            ]
            self.device_kernels = [
                device.batch_kernel(row_bytes) for device in backends.devices
            ]
            # PIFSSwitch.batch_kernel returns the accumulate-capable kernel;
            # the base FabricSwitch kernel only forwards host reads.
            self.switch_kernels = [
                switch.batch_kernel(row_bytes) for switch in backends.switches
            ]
        except (ValueError, RuntimeError) as error:
            raise VectorUnsupportedError(str(error)) from error

        num_hosts = self.num_hosts = system.system.num_hosts
        self.num_local_drams = len(self.local_dram_kernels)
        self.device_switch: List[int] = [
            backends.device_switch[device_id] for device_id in range(len(backends.devices))
        ]
        self._device_switch_np = np.asarray(self.device_switch, dtype=np.int64)
        #: True when the fabric has exactly one switch — the request paths
        #: then skip per-row switch bucketing entirely.
        self.single_switch = len(backends.switches) == 1
        self.home_switch: List[int] = [
            backends.host_home_switch[host_id] for host_id in range(num_hosts)
        ]
        self.forward_ns: List[float] = [
            type(switch).FORWARD_LATENCY_NS for switch in backends.switches
        ]
        self._port_kernels = [
            [
                self.switch_kernels[switch_id].port_kernel(
                    backends.host_ports[(host_id, switch_id)]
                )
                for switch_id in range(len(backends.switches))
            ]
            for host_id in range(num_hosts)
        ]
        #: Extra per-system kernels registered via ``prepare_vector`` (e.g.
        #: RecNMP's rank cache); synced together with the layer kernels.
        self.extra_kernels: List = []

        # Buffered access-recording side effects (flushed before maintenance):
        # the request paths ``extend`` page-id slices onto ``pending_pages``
        # (a C-level list append) and the counting happens once per flush.
        self.pending_pages: List[int] = []

        self._bind_closures()
        system.prepare_vector(self)

    # ------------------------------------------------------------------
    # Stage-1 resolution (one dispatch unit)
    # ------------------------------------------------------------------
    def load_window(self, requests: List) -> None:
        """Resolve the stage-1 arrays over ``requests``, the next dispatch unit.

        The closed-loop replay passes each workload window (an eager
        workload is one window); the serve loop passes each batch it is
        about to time.  ``bounds`` maps every request id of the unit to its
        ``(begin, end)`` positions in the arrays, so ids may be global and
        have gaps (fleet shard views, a host's batch).  Kernel state and the
        buffered access counters are left untouched — they are cumulative
        across units, exactly like the scalar engine's device state, so
        every finish time is independent of how the trace is cut.
        """
        if requests:
            addresses = np.concatenate([request.addresses for request in requests])
        else:
            addresses = np.zeros(0, dtype=np.int64)
        addresses = addresses.astype(np.int64, copy=False)
        lengths = np.fromiter(
            (len(request.addresses) for request in requests), dtype=np.int64, count=len(requests)
        )
        ends = np.cumsum(lengths)
        self.bounds: Dict[int, Tuple[int, int]] = dict(zip(
            [request.request_id for request in requests],
            zip((ends - lengths).tolist(), ends.tolist()),
        ))

        self.addr: List[int] = addresses.tolist()
        self._page_np = addresses // PAGE_SIZE_BYTES
        self.page: List[int] = self._page_np.tolist()

        backends = self.backends
        local_mapping = backends.local_dram.controller.mapping
        lch, lfb, lrow = local_mapping.decode_flat_batch(addresses)
        self.lch, self.lfb, self.lrow = lch.tolist(), lfb.tolist(), lrow.tolist()
        cxl_mapping = backends.devices[0].dram.controller.mapping
        cch, cfb, crow = cxl_mapping.decode_flat_batch(addresses)
        self.cch, self.cfb, self.crow = cch.tolist(), cfb.tolist(), crow.tolist()

        # Invalidate the node-window gather cache: positions are relative
        # to this unit's arrays.
        self._window_local: List[bool] = []
        self._window_device: List[int] = []
        self._local_pos: List[int] = []
        self._remote_pos: List[int] = []
        self._remote_dev: List[int] = []
        self._remote_sw: List[int] = []
        self._window_start = 0
        self._window_end = 0
        self._node_generation = -1
        self._generation_start = 0

    # ------------------------------------------------------------------
    # Resolution accessors
    # ------------------------------------------------------------------
    #: Largest node-window gather (lookups, not bytes): large enough to
    #: amortize the numpy gather.  A gather that follows a placement change
    #: is sized to about twice what the previous placement generation
    #: consumed, so the frequent migration epochs of the page-managed
    #: systems re-gather about what they will use; a gather after the
    #: window ran out (every gather of a system that never migrates) takes
    #: the whole window.
    NODE_WINDOW = 8192

    def _ensure_window(self, begin: int, end: int) -> None:
        """Make the cached window cover positions ``[begin, end)``.

        The window is re-gathered through the node column when the
        placement generation changes or the request leaves the cached range;
        the closed-loop replay consumes positions in order, so each epoch
        re-gathers about what it consumes (see :attr:`NODE_WINDOW`).  One
        rebuild derives, with a handful of numpy passes, everything the
        request paths consume per row: the local/CXL flags, the owning
        device per position, and the position-sorted local/remote split with
        its device and switch columns (so per-request splits are C-level
        list slices instead of per-row Python branching).
        """
        generation = self.tiered.generation
        if (
            generation == self._node_generation
            and begin >= self._window_start
            and end <= self._window_end
        ):
            return
        block = self.NODE_WINDOW
        if generation != self._node_generation:
            # After a placement change (not a new dispatch unit), gather
            # about twice what the previous generation consumed.
            consumed = begin - self._generation_start
            if self._node_generation >= 0 and consumed >= 0:
                block = min(block, 2 * consumed)
            self._generation_start = begin
        stop = min(begin + max(block, end - begin), len(self.page))
        table = self.tiered.node_id_table()
        window_np = table[self._page_np[begin:stop]]
        local_mask = self._node_is_local_np[window_np]
        self._window_local = local_mask.tolist()
        device_np = self._node_device_np[window_np]
        self._window_device = device_np.tolist()
        local_idx = np.nonzero(local_mask)[0]
        remote_idx = np.nonzero(~local_mask)[0]
        self._local_pos = (local_idx + begin).tolist()
        self._remote_pos = (remote_idx + begin).tolist()
        remote_devs = device_np[remote_idx]
        self._remote_dev = remote_devs.tolist()
        self._remote_sw = self._device_switch_np[remote_devs].tolist()
        self._window_start = begin
        self._window_end = stop
        self._node_generation = generation

    def window_flags(self, begin: int, end: int) -> Tuple[List[bool], List[int], int]:
        """Per-position ``(local_flags, device_ids, offset)`` for ``[begin, end)``.

        ``local_flags[k - offset]`` is True when position ``k`` resolves to
        local DRAM; ``device_ids[k - offset]`` is the owning CXL device id
        (-1 for local rows).  For request paths that walk rows in original
        order (the MLP-grouped host accumulation).
        """
        self._ensure_window(begin, end)
        return self._window_local, self._window_device, self._window_start

    def split(self, begin: int, end: int) -> Tuple[List[int], List[int], List[int], List[int]]:
        """Local/remote split of positions ``[begin, end)``.

        Returns ``(local_ks, remote_ks, remote_devices, remote_switches)``:
        the resolved positions that live in local DRAM, those that live in
        the CXL pool, and — aligned with ``remote_ks`` — the owning device
        and switch ids.  All four are slices of window-level arrays computed
        with numpy at the last re-gather, so a request's split costs two
        binary searches and four list slices.
        """
        self._ensure_window(begin, end)
        local_pos = self._local_pos
        remote_pos = self._remote_pos
        i0 = bisect_left(local_pos, begin)
        i1 = bisect_left(local_pos, end, i0)
        j0 = bisect_left(remote_pos, begin)
        j1 = bisect_left(remote_pos, end, j0)
        return (
            local_pos[i0:i1],
            remote_pos[j0:j1],
            self._remote_dev[j0:j1],
            self._remote_sw[j0:j1],
        )

    # ------------------------------------------------------------------
    # Closure binding / state flushing
    # ------------------------------------------------------------------
    def _bind_closures(self) -> None:
        """(Re)export the kernels' bound closures as flat lists.

        Kernels re-arm their closures on :meth:`sync`, so the exported lists
        are refreshed after every full flush.
        """
        self.local_access = [kernel.access for kernel in self.local_dram_kernels]
        self.dev_access_host = [kernel.access_host for kernel in self.device_kernels]
        self.dev_access_switch = [kernel.access_switch for kernel in self.device_kernels]
        self.port_host_read = [
            [port.host_read for port in ports] for ports in self._port_kernels
        ]
        self.port_transfer = [
            [port.transfer for port in ports] for ports in self._port_kernels
        ]
        self.port_stream = [
            [port.transfer_stream for port in ports] for ports in self._port_kernels
        ]

    def flush_tiered(self) -> None:
        """Flush buffered access counts into the page count column and node counters.

        Must run before anything reads page/node hotness — the engine calls
        it ahead of every maintenance pass and at session end.
        """
        obs = self.system.obs
        if obs.enabled:
            obs.count("vector.flush.calls")
            obs.add("vector.flush.pages", len(self.pending_pages))
        if self.pending_pages:
            self.tiered.record_pages(self.pending_pages)
            self.pending_pages = []

    def flush_all(self) -> None:
        """Flush counters and write every kernel's state back to the models."""
        self.flush_tiered()
        for kernel in self.local_dram_kernels:
            kernel.sync()
        for kernel in self.device_kernels:
            kernel.sync()
        for kernel in self.switch_kernels:
            kernel.sync()
        for kernel in self.extra_kernels:
            kernel.sync()
        self._bind_closures()


__all__ = ["VectorContext", "VectorUnsupportedError"]
