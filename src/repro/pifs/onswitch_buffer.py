"""On-switch SRAM buffer (§IV-A4) with HTR, LRU and FIFO policies."""

from __future__ import annotations

import dataclasses
import heapq
from collections import Counter, OrderedDict, deque
from itertools import islice
from typing import Deque, Dict, List, Optional, Tuple

from repro.config import BufferConfig


class OnSwitchBuffer:
    """A row-vector cache held in the fabric switch's SRAM.

    The buffer stores whole embedding rows keyed by their (row-aligned) byte
    address.  Three replacement strategies are supported:

    * ``htr`` — Hottest Recording: the buffer counts the lookups of every
      row in its own ``Counter``; it is periodically re-curated to hold the
      most-counted rows, and on insertion the coldest resident row is
      evicted only if the incoming row is at least as hot.
    * ``lru`` — classic least-recently-used.
    * ``fifo`` — first-in-first-out.
    * ``none`` — the buffer is disabled (every lookup misses).

    Only HTR counts rows; the other policies never read a count.  HTR
    curation ranks rows by count, equal counts in first-seen order (the
    order ``Counter.most_common`` keeps).  Counts only grow, and only
    through :meth:`lookup`, so each curation re-keys just the rows probed
    since the previous one and merges them into that curation's survivors
    (see :meth:`_rank_hottest`).
    """

    def __init__(self, config: BufferConfig, row_bytes: int) -> None:
        if row_bytes <= 0:
            raise ValueError("row_bytes must be positive")
        self._config = config
        self._row_bytes = row_bytes
        self._capacity_rows = config.capacity_bytes // row_bytes
        self._entries: "OrderedDict[int, int]" = OrderedDict()  # address -> insertion order
        self._fifo: Deque[int] = deque()
        # HTR row counts, in first-seen order.
        self._counts: Counter = Counter()
        # HTR eviction heap: (count-at-push, insertion-seq, address) triples.
        # Counts only grow, so pushed counts are lower bounds and the
        # classic lazy-update scheme finds the exact (count, insertion-order)
        # minimum the linear scan used to select.
        self._heap: List[Tuple[int, int, int]] = []
        # Incremental HTR ranking: the last curation's top rows as sorted
        # (-count, first-seen rank, address) keys, every counted row's
        # first-seen rank, and the rows probed since (a list both lookup
        # paths append to; cleared in place).  ``_rerank`` makes the next
        # curation rank every counted row from scratch.
        self._ranked: List[Tuple[int, int, int]] = []
        self._first_seen: Dict[int, int] = {}
        self._touched: List[int] = []
        self._rerank = False
        self._hits = 0
        self._misses = 0
        self._insertions = 0
        self._evictions = 0
        self._accesses_since_curate = 0

    # ------------------------------------------------------------------
    @property
    def config(self) -> BufferConfig:
        return self._config

    @property
    def capacity_rows(self) -> int:
        return self._capacity_rows

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    @property
    def evictions(self) -> int:
        return self._evictions

    def hit_ratio(self) -> float:
        total = self._hits + self._misses
        if total == 0:
            return 0.0
        return self._hits / total

    def hit_latency_ns(self) -> float:
        return self._config.hit_latency_ns

    # ------------------------------------------------------------------
    def lookup(self, address: int) -> bool:
        """Look up ``address``; updates hit/miss counters and HTR's row count."""
        self._accesses_since_curate += 1
        if self._config.policy == "none" or self._capacity_rows == 0:
            self._misses += 1
            return False
        hit = address in self._entries
        if hit:
            self._hits += 1
            if self._config.policy == "lru":
                self._entries.move_to_end(address)
        else:
            self._misses += 1
        if self._config.policy == "htr":
            self._counts[address] += 1
            self._touched.append(address)
            if self._accesses_since_curate >= self._config.htr_interval:
                self._curate()
        return hit

    def insert(self, address: int) -> None:
        """Insert ``address`` after a miss, applying the replacement policy."""
        if self._config.policy == "none" or self._capacity_rows == 0:
            return
        if address in self._entries:
            if self._config.policy == "lru":
                self._entries.move_to_end(address)
            return
        if len(self._entries) >= self._capacity_rows:
            if not self._evict_for(address):
                return
        self._entries[address] = self._insertions
        if self._config.policy == "htr":
            heapq.heappush(self._heap, (self._counts[address], self._insertions, address))
        self._insertions += 1
        if self._config.policy == "fifo":
            self._fifo.append(address)

    def contains(self, address: int) -> bool:
        return address in self._entries

    def resize(self, capacity_bytes: int) -> None:
        """Shrink or grow the buffer's SRAM capacity in place.

        Models a fault/degradation scenario where part of the switch SRAM
        is reallocated (or mapped out after an ECC event).  If the new
        capacity is below the current occupancy, resident rows are evicted
        in insertion order until the buffer fits.  Must be applied before
        a :class:`BufferKernel` is built — kernels snapshot the capacity.
        The next curation ranks from scratch.
        """
        self._config = dataclasses.replace(self._config, capacity_bytes=capacity_bytes)
        self._capacity_rows = capacity_bytes // self._row_bytes
        self._rerank = True
        while len(self._entries) > self._capacity_rows:
            victim, _ = self._entries.popitem(last=False)
            if victim in self._fifo:
                self._fifo.remove(victim)
            self._evictions += 1
        if self._config.policy == "htr":
            self._rebuild_heap()

    # ------------------------------------------------------------------
    def _evict_for(self, incoming: int) -> bool:
        """Free one slot for ``incoming``; returns False if it should not be cached."""
        policy = self._config.policy
        if policy == "fifo":
            while self._fifo:
                victim = self._fifo.popleft()
                if victim in self._entries:
                    del self._entries[victim]
                    self._evictions += 1
                    return True
            return True
        if policy == "lru":
            self._entries.popitem(last=False)
            self._evictions += 1
            return True
        # HTR: evict the coldest resident row, but only if the incoming row is
        # at least as hot — otherwise keep the current curation.  The victim
        # the original linear scan selected is the first minimal-count entry
        # in insertion order, i.e. the lexicographic minimum of
        # (count, insertion-seq) — which the lazy heap yields in O(log n)
        # amortized instead of an O(n) count scan per eviction.
        if not self._entries:
            return True
        top = self._heap_top()
        if top is None:
            return True
        coldest_count, _, coldest_addr = top
        incoming_count = self._counts[incoming]
        if incoming_count >= (coldest_count or 0):
            heapq.heappop(self._heap)
            del self._entries[coldest_addr]
            self._evictions += 1
            return True
        return False

    def _heap_top(self) -> Optional[Tuple[int, int, int]]:
        """The exact (count, seq, address) minimum over resident entries.

        Every resident row has a heap entry carrying its count when it was
        pushed.  Pops stale entries (evicted or re-curated addresses) and
        refreshes entries whose count grew since.  Counts only grow, so
        pushed counts are lower bounds and a fresh top is the true minimum.
        """
        heap = self._heap
        entry_seq = self._entries.get
        counts = self._counts
        while heap:
            count, seq, address = heap[0]
            if entry_seq(address) != seq:
                heapq.heappop(heap)
                continue
            current = counts[address]
            if current != count:
                heapq.heapreplace(heap, (current, seq, address))
                continue
            return heap[0]
        return None

    def _rebuild_heap(self) -> None:
        counts = self._counts
        self._heap = [(counts[address], seq, address) for address, seq in self._entries.items()]
        heapq.heapify(self._heap)

    def _curate(self) -> None:
        """Re-curate the HTR buffer to hold the most-counted rows."""
        self._accesses_since_curate = 0
        # Built in rank order: the set's iteration order decides which
        # newcomer gets which insertion seq.
        desired = {address for _, _, address in self._rank_hottest()}
        entries = self._entries
        current = set(entries)
        for addr in current - desired:
            del entries[addr]
            self._evictions += 1
        # Survivors keep valid lower-bound heap entries; only newcomers are
        # pushed, and the evicted rows' entries are dropped lazily.
        heap = self._heap
        counts = self._counts
        for addr in desired - current:
            if len(entries) < self._capacity_rows:
                seq = self._insertions
                entries[addr] = seq
                heapq.heappush(heap, (counts[addr], seq, addr))
                self._insertions += 1
        if len(heap) > 2 * len(entries):
            self._rebuild_heap()

    def _rank_hottest(self) -> List[Tuple[int, int, int]]:
        """The ``capacity_rows`` hottest rows as sorted ``(-count, first-seen rank, address)``.

        Same rows and order as ``Counter.most_common(capacity_rows)``.  A
        row neither probed since the previous curation nor in its top-k
        kept its count while every top-k row's count could only grow, so it
        still ranks below all k of them: the new top-k is the previous one
        with the probed rows re-keyed.  After a resize, every counted row is
        re-keyed against an empty top-k.
        """
        counts = self._counts
        rank = self._first_seen
        touched = set(self._touched)
        # In place: the BufferKernel closures hold this list's append.
        self._touched.clear()
        if self._rerank:
            self._ranked = []
            touched = counts.keys()
            self._rerank = False
        # New rows entered the counter at its end, in first-seen order.
        rank.update(zip(islice(counts, len(rank), None), range(len(rank), len(counts))))
        ranked = [key for key in self._ranked if key[2] not in touched]
        ranked += sorted([(-counts[a], rank[a], a) for a in touched])
        ranked.sort()  # merges the two sorted runs
        del ranked[self._capacity_rows:]
        self._ranked = ranked
        return ranked

    def reset_stats(self) -> None:
        self._hits = 0
        self._misses = 0

    def batch_kernel(self) -> "BufferKernel":
        """A flattened lookup/insert kernel over this buffer (batch engine)."""
        return BufferKernel(self)


class BufferKernel:
    """Flattened ``lookup``/``insert`` over one :class:`OnSwitchBuffer`.

    The closures operate directly on the buffer's own ``OrderedDict``, HTR
    counter and touched list (so HTR curation and eviction decisions are
    the buffer's own code), while the hit/miss/interval counters live in
    locals until :meth:`sync`.  Behaviour is identical to the scalar
    methods, including the HTR re-curation trigger position inside
    ``lookup``.  A disabled buffer (policy ``none`` or no capacity) misses
    every lookup and ignores every insert, so callers may skip both and
    count the misses with one ``miss(count)`` call.
    """

    def __init__(self, buffer: OnSwitchBuffer) -> None:
        self._buffer = buffer
        self.disabled = buffer._config.policy == "none" or buffer._capacity_rows == 0
        self.lookup, self.insert, self.miss, self._snapshot = self._build()

    def _build(self):
        buffer = self._buffer
        entries = buffer._entries
        move_to_end = entries.move_to_end
        counts = buffer._counts
        policy = buffer._config.policy
        capacity = buffer._capacity_rows
        disabled = self.disabled
        is_lru = policy == "lru"
        is_htr = policy == "htr"
        is_fifo = policy == "fifo"
        htr_interval = buffer._config.htr_interval
        touch = buffer._touched.append
        hits = 0
        misses = 0
        since_curate = buffer._accesses_since_curate

        def lookup(address: int) -> bool:
            nonlocal hits, misses, since_curate
            since_curate += 1
            if disabled:
                misses += 1
                return False
            hit = address in entries
            if hit:
                hits += 1
                if is_lru:
                    move_to_end(address)
            else:
                misses += 1
            if is_htr:
                counts[address] += 1
                touch(address)
                if since_curate >= htr_interval:
                    buffer._curate()
                    since_curate = 0
            return hit

        heappush = heapq.heappush

        def insert(address: int) -> None:
            if disabled:
                return
            if address in entries:
                if is_lru:
                    move_to_end(address)
                return
            if len(entries) >= capacity:
                if not buffer._evict_for(address):
                    return
            seq = buffer._insertions
            entries[address] = seq
            if is_htr:
                heappush(buffer._heap, (counts[address], seq, address))
            buffer._insertions += 1
            if is_fifo:
                buffer._fifo.append(address)

        def miss(count: int) -> None:
            """``count`` lookups of a disabled buffer, counted at once."""
            nonlocal misses, since_curate
            since_curate += count
            misses += count

        def snapshot():
            return hits, misses, since_curate

        return lookup, insert, miss, snapshot

    def sync(self) -> None:
        """Fold the buffered counters back into the buffer object."""
        hits, misses, since_curate = self._snapshot()
        buffer = self._buffer
        buffer._hits += hits
        buffer._misses += misses
        buffer._accesses_since_curate = since_curate
        self.lookup, self.insert, self.miss, self._snapshot = self._build()


__all__ = ["OnSwitchBuffer", "BufferKernel"]
