"""Vectorized session context for the batch simulation engine.

The scalar engine resolves and times every lookup through the full object
stack (tiered page table → device models → switch/link objects), costing
dozens of Python calls per row.  The vectorized engine keeps the *scalar
path as the oracle* and restructures the work in two stages:

1. **Blockwise resolution** — each dispatch unit (a replay window, or a
   served batch) is taken as one int64 address column right before it is
   timed, and resolved one block at a time as its requests are timed.  A
   block covers at most :attr:`VectorContext.NODE_WINDOW` positions (or
   one longer request) and is decoded with a handful of numpy passes: page
   ids and DRAM coordinates under both the local-DDR5 and the CXL-DDR4
   mappings.  The page → node gather through
   :meth:`~repro.memsys.tiered.TieredMemorySystem.node_id_table` runs
   over the part of the block about to be timed, again whenever the
   placement generation changes.  Only the block is held as Python lists.
2. **Flattened timing kernels** — the stateful per-access arithmetic runs
   through the layer kernels (:class:`~repro.dram.device.DRAMKernel`,
   :class:`~repro.cxl.device.CXLDeviceKernel`,
   :class:`~repro.cxl.switch.SwitchPortKernel`,
   :class:`~repro.pifs.switch.PIFSSwitchKernel`), closures over plain local
   state that perform exactly the scalar arithmetic in the same order, so
   every finish time is bit-identical to the scalar engine.

A context lives for one session: the engine builds it in ``begin_session``
and drops it in ``finish_session`` once its kernels are synced back into
the device models, so a finished system holds no resolution state.

Every position :meth:`VectorContext.locate` returns is an accessed row,
and a unit's requests are timed in order, so each flush records the
pages of the positions located since the previous one (no page list is
buffered) through
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
    """Per-session timing kernels plus the resolved block of one dispatch unit.

    Construction builds the kernels and resolves nothing.  The engine calls
    :meth:`load_window` with every dispatch unit before timing it, and each
    request path calls :meth:`locate` for its positions in the resolved
    block.  The block lists — ``addr``, the local and CXL DRAM
    coordinates ``lch``/``lfb``/``lrow`` and ``cch``/``cfb``/``crow``, and
    the placement columns ``local_flags``/``row_device`` — never cover more
    than :attr:`NODE_WINDOW` positions or one request, whichever is longer.
    A context lives for one session.
    """

    def __init__(self, system) -> None:
        self.system = system
        self.tiered = system.tiered
        backends = system.backends
        self.backends = backends
        self.row_bytes = backends.row_bytes
        self._local_mapping = backends.local_dram.controller.mapping
        self._cxl_mapping = backends.devices[0].dram.controller.mapping

        # Placement tables (node id -> tier / device) for the block gather.
        is_local, node_device = placement_arrays(self.tiered.nodes(), system.node_to_device)
        self._node_is_local_np = is_local
        self._node_device_np = node_device

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
        # The upstream port kernels, indexed by host and switch id, and the
        # per-row closures as flat lists, indexed by host, device and switch
        # id.  A sync leaves every closure valid.
        self.port_kernels = [
            [
                self.switch_kernels[switch_id].port_kernel(
                    backends.host_ports[(host_id, switch_id)]
                )
                for switch_id in range(len(backends.switches))
            ]
            for host_id in range(num_hosts)
        ]
        self.local_access = [kernel.access for kernel in self.local_dram_kernels]
        self.dev_access_host = [kernel.access_host for kernel in self.device_kernels]
        self.dev_access_switch = [kernel.access_switch for kernel in self.device_kernels]
        self.port_host_read = [[port.host_read for port in ports] for ports in self.port_kernels]

        # Located but unrecorded positions: ``[_recorded, _located)`` of the
        # current unit, and the address slices earlier units left.
        self._recorded = self._located = 0
        self._unrecorded: List[np.ndarray] = []

        # No unit yet: an empty column and empty block lists.
        self._addresses = self._block_pages = np.zeros(0, dtype=np.int64)
        self._spans: Dict[int, Tuple[int, int]] = {}
        for name in self.DECODED_LISTS + ("local_flags", "row_device"):
            setattr(self, name, [])
        self._forget_block()
        system.prepare_vector(self)

    # ------------------------------------------------------------------
    # Stage-1 resolution (one dispatch unit, one block at a time)
    # ------------------------------------------------------------------
    def load_window(self, requests: List) -> None:
        """Take ``requests``, the next dispatch unit, as one address column.

        The closed-loop replay passes each workload window (an eager
        workload is one window); the serve loop passes each batch it is
        about to time.  Nothing is decoded here: the context keeps the
        unit's int64 address column and every request's ``(begin, end)``
        span in it, keyed by request id, so ids may be global and have gaps
        (fleet shard views, a host's batch); :meth:`locate` resolves the
        column block by block.  The old unit's located, unrecorded positions
        are kept as a slice of its column for the next flush.  Kernel state
        is left untouched — it is cumulative across units, exactly like the
        scalar engine's device state, so every finish time is independent
        of how the trace is cut.
        """
        self._keep_unrecorded()
        self._recorded = self._located = 0
        if requests:
            addresses = np.concatenate([request.addresses for request in requests])
        else:
            addresses = np.zeros(0, dtype=np.int64)
        self._addresses = addresses.astype(np.int64, copy=False)
        spans = {}
        end = 0
        for request in requests:
            begin = end
            end += len(request.addresses)
            spans[request.request_id] = (begin, end)
        self._spans = spans
        self._forget_block()

    def _forget_block(self) -> None:
        """Mark no block decoded and no node window gathered.

        The next :meth:`locate` decodes a block and replaces the lists,
        which until then hold at most one block of the previous unit.
        """
        self._block_start = 0
        self._block_end = 0
        self._window_start = 0
        self._window_end = 0
        self._node_generation = -1
        self._generation_start = 0

    #: Positions one block decodes, and the largest node gather (lookups,
    #: not bytes): large enough to amortize the numpy passes.  A gather
    #: that follows a placement change is sized to about twice what the
    #: previous placement generation consumed, so the frequent migration
    #: epochs of the page-managed systems re-gather about what they will
    #: use; a gather after the window ran out (every gather of a system
    #: that never migrates) takes the whole window.
    NODE_WINDOW = 8192

    def locate(self, request_id: int) -> Tuple[int, int]:
        """Block positions ``(begin, end)`` of a request of the current unit.

        The positions index the block lists and :meth:`split` until the
        next call.  The request must lie in the node window, the span of
        the decoded block whose placement was gathered under the current
        generation; otherwise :meth:`_ensure_window` gathers a new one
        first.  Callers locate a unit's requests in order, and every
        located row is accessed: the next :meth:`flush_tiered` records it.
        """
        begin, end = self._spans[request_id]
        self._located = end
        if (
            self.tiered.generation != self._node_generation
            or begin < self._window_start
            or end > self._window_end
        ):
            self._ensure_window(begin, end)
        start = self._block_start
        return begin - start, end - start

    def _ensure_window(self, begin: int, end: int) -> None:
        """Gather a node window that covers unit positions ``[begin, end)``.

        :meth:`locate` calls it when the generation changed or the request
        left the window; the closed-loop replay consumes positions in
        order, so each epoch re-gathers about what it consumes (see
        :attr:`NODE_WINDOW`).  A window that would leave the decoded block
        decodes a new block from ``begin`` first.  One gather derives, with
        a handful of numpy passes, the local/CXL flags and the owning
        device per position, and the position-sorted local/remote split
        with its device and switch columns (so per-request splits are
        C-level list slices instead of per-row Python branching).
        """
        generation = self.tiered.generation
        block = self.NODE_WINDOW
        if generation != self._node_generation:
            # After a placement change (not a new dispatch unit), gather
            # about twice what the previous generation consumed.
            consumed = begin - self._generation_start
            if self._node_generation >= 0 and consumed >= 0:
                block = min(block, 2 * consumed)
            self._generation_start = begin
        stop = min(begin + max(block, end - begin), len(self._addresses))
        if begin < self._block_start or stop > self._block_end:
            self._decode_block(begin, end)
        lo = begin - self._block_start
        hi = stop - self._block_start
        nodes = self.tiered.node_id_table()[self._block_pages[lo:hi]]
        local_mask = self._node_is_local_np[nodes]
        device_np = self._node_device_np[nodes]
        self.local_flags[lo:hi] = local_mask.tolist()
        self.row_device[lo:hi] = device_np.tolist()
        self._local_pos = (np.nonzero(local_mask)[0] + lo).tolist()
        remote_idx = np.nonzero(~local_mask)[0]
        self._remote_pos = (remote_idx + lo).tolist()
        remote_devs = device_np[remote_idx]
        self._remote_dev = remote_devs.tolist()
        self._remote_sw = self._device_switch_np[remote_devs].tolist()
        self._window_start = begin
        self._window_end = stop
        self._node_generation = generation

    #: The block lists decoded from the unit's addresses, in decode order.
    DECODED_LISTS = ("addr", "lch", "lfb", "lrow", "cch", "cfb", "crow")

    def _decode_block(self, begin: int, end: int) -> None:
        """Make unit positions from ``begin`` the new block.

        The block is :attr:`NODE_WINDOW` positions, or ``[begin, end)`` if
        that is longer, cut at the unit's end: its addresses, page ids and
        DRAM coordinates under both mappings.  The old block's tail from
        ``begin`` is already decoded and carries over, so each position of
        a unit is decoded once.  The placement columns are filled by the
        node gathers.
        """
        stop = min(begin + max(self.NODE_WINDOW, end - begin), len(self._addresses))
        lo = begin - self._block_start
        kept = max(0, self._block_end - begin) if lo >= 0 else 0
        addresses = self._addresses[begin + kept:stop]
        pages = addresses // PAGE_SIZE_BYTES
        decoded = (
            addresses,
            *self._local_mapping.decode_flat_batch(addresses),
            *self._cxl_mapping.decode_flat_batch(addresses),
        )
        if kept:
            tail = slice(lo, lo + kept)
            self._block_pages = np.concatenate([self._block_pages[tail], pages])
            for name, column in zip(self.DECODED_LISTS, decoded):
                setattr(self, name, getattr(self, name)[tail] + column.tolist())
        else:
            # Nothing to carry: skip the list copies (most blocks, and every
            # serve batch, start past the old block).
            self._block_pages = pages
            for name, column in zip(self.DECODED_LISTS, decoded):
                setattr(self, name, column.tolist())
        self.local_flags = [False] * (stop - begin)
        self.row_device = [-1] * (stop - begin)
        self._block_start = begin
        self._block_end = stop

    def split(self, begin: int, end: int) -> Tuple[List[int], List[int], List[int], List[int]]:
        """Local/remote split of block positions ``[begin, end)`` from :meth:`locate`.

        Returns ``(local_ks, remote_ks, remote_devices, remote_switches)``:
        the block positions that live in local DRAM, those that live in
        the CXL pool, and — aligned with ``remote_ks`` — the owning device
        and switch ids.  All four are slices of block-level lists computed
        with numpy at the last gather, so a request's split costs two
        binary searches and four list slices.
        """
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
    # State flushing
    # ------------------------------------------------------------------
    def _keep_unrecorded(self) -> None:
        """Set the located, unrecorded positions of the unit aside (a view)."""
        if self._located > self._recorded:
            self._unrecorded.append(self._addresses[self._recorded:self._located])
            self._recorded = self._located

    def flush_tiered(self) -> None:
        """Record the pages of the positions located since the last flush.

        Must run before anything reads page/node hotness — the engine calls
        it ahead of every maintenance pass and at session end.
        """
        self._keep_unrecorded()
        located, self._unrecorded = self._unrecorded, []
        obs = self.system.obs
        if obs.enabled:
            obs.count("vector.flush.calls")
            obs.add("vector.flush.pages", sum(map(len, located)))
        if located:
            self.tiered.record_pages(np.concatenate(located) // PAGE_SIZE_BYTES)

    def flush_all(self) -> None:
        """Flush counters and write every kernel's state back to the models.

        Each kernel writes its timing state and float sums back and folds
        in the counts it kept since its previous sync, then zeroes them;
        its closures keep running on the same state, so a sync may come
        mid-session.  The engine calls this last in a session and then
        drops the context.
        """
        self.flush_tiered()
        for kernel in self.local_dram_kernels:
            kernel.sync()
        for kernel in self.device_kernels:
            kernel.sync()
        for kernel in self.switch_kernels:
            kernel.sync()


__all__ = ["VectorContext", "VectorUnsupportedError"]
