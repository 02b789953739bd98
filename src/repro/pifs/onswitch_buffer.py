"""On-switch SRAM buffer (§IV-A4) with HTR, LRU and FIFO policies."""

from __future__ import annotations

import dataclasses
import heapq
from collections import OrderedDict, deque
from itertools import islice
from typing import Deque, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.config import BufferConfig

#: Curation sorts on the one int64 key ``rank - (count << 32)``, unique
#: per row while first-seen ranks stay below 2**32 and counts below 2**31.
_RANK_LIMIT = 1 << 32
_COUNT_LIMIT = 1 << 31


class OnSwitchBuffer:
    """A row-vector cache held in the fabric switch's SRAM.

    The buffer stores whole embedding rows keyed by their (row-aligned) byte
    address.  Three replacement strategies are supported:

    * ``htr`` — Hottest Recording: the buffer counts the lookups of every
      row; it is periodically re-curated to hold the most-counted rows, and
      on insertion the coldest resident row is evicted only if the incoming
      row is at least as hot.
    * ``lru`` — classic least-recently-used.
    * ``fifo`` — first-in-first-out.
    * ``none`` — the buffer is disabled (every lookup misses).

    Only HTR counts rows, in a plain ``dict`` kept in first-seen order; the
    other policies never read a count.  A probe costs HTR one count
    increment, one add to the set of rows touched since the last curation
    and one membership test of the resident map (a plain ``dict``; LRU's is
    an ``OrderedDict`` for ``move_to_end``).  HTR curation ranks rows by
    count, equal counts in first-seen order (the order
    ``Counter.most_common`` keeps).  Counts only grow, and only through a
    probe, so each curation keys just the touched rows and merges them
    with the previous curation's top rows, held as int64 columns, in a few
    numpy passes (see :meth:`_rank_hottest`).

    The scalar engine and RecNMP's rank cache call :meth:`lookup` and
    :meth:`insert`; the vector engine's
    :class:`~repro.pifs.switch.PIFSSwitchKernel` probes the resident map
    and the counts inline and inserts through :meth:`insert`.
    """

    def __init__(self, config: BufferConfig, row_bytes: int) -> None:
        if row_bytes <= 0:
            raise ValueError("row_bytes must be positive")
        self._config = config
        self._row_bytes = row_bytes
        self._capacity_rows = config.capacity_bytes // row_bytes
        # The switch kernel holds the resident map, the counts and the
        # touched set across a curation: they are mutated in place, never
        # replaced.  The resident map is address -> insertion seq, a plain
        # dict except under LRU: HTR's newcomer order depends on
        # ``set.difference`` seeing an exact dict.
        self._entries: Dict[int, int] = OrderedDict() if config.policy == "lru" else {}
        self._fifo: Deque[int] = deque()
        # HTR row counts, in first-seen order.
        self._counts: Dict[int, int] = {}
        # HTR eviction heap: (count-at-push, insertion-seq, address) triples.
        # Counts only grow, so pushed counts are lower bounds and the
        # classic lazy-update scheme finds the exact (count, insertion-order)
        # minimum the linear scan used to select.
        self._heap: List[Tuple[int, int, int]] = []
        # Incremental HTR ranking: the rows probed since the last curation;
        # that curation's top rows as first-seen-rank and count columns,
        # hottest first, and the insertion seq it ended at (later seqs are
        # misses' inserts); every counted row's first-seen rank and the row
        # at each rank; a scratch flag per rank, all clear between uses.
        # ``_rerank`` makes the next curation rank every counted row from
        # scratch.
        self._touched: Set[int] = set()
        self._top_rank = np.empty(0, dtype=np.int64)
        self._top_count = np.empty(0, dtype=np.int64)
        self._curated_seq = 0
        self._first_seen: Dict[int, int] = {}
        self._by_rank: List[int] = []
        self._flags = np.zeros(0, dtype=bool)
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
        policy = self._config.policy
        if policy == "none" or self._capacity_rows == 0:
            self._misses += 1
            return False
        hit = address in self._entries
        if hit:
            self._hits += 1
            if policy == "lru":
                self._entries.move_to_end(address)
        else:
            self._misses += 1
        if policy == "htr":
            self._counts[address] = self._counts.get(address, 0) + 1
            self._touched.add(address)
            if self._accesses_since_curate >= self._config.htr_interval:
                self._curate()
        return hit

    def insert(self, address: int) -> None:
        """Insert ``address`` after a miss, applying the replacement policy."""
        policy = self._config.policy
        if policy == "none" or self._capacity_rows == 0:
            return
        entries = self._entries
        if address in entries:
            if policy == "lru":
                entries.move_to_end(address)
            return
        if len(entries) >= self._capacity_rows:
            if not self._evict_for(address):
                return
        seq = self._insertions
        entries[address] = seq
        self._insertions = seq + 1
        if policy == "htr":
            heapq.heappush(self._heap, (self._counts.get(address, 0), seq, address))
        elif policy == "fifo":
            self._fifo.append(address)

    def contains(self, address: int) -> bool:
        return address in self._entries

    def resize(self, capacity_bytes: int) -> None:
        """Shrink or grow the buffer's SRAM capacity in place.

        Models a fault/degradation scenario where part of the switch SRAM
        is reallocated (or mapped out after an ECC event).  If the new
        capacity is below the current occupancy, resident rows are evicted
        in insertion order until the buffer fits.  Must be applied before
        a switch kernel is built — kernels snapshot whether the buffer is
        enabled.  The next curation ranks from scratch.
        """
        self._config = dataclasses.replace(self._config, capacity_bytes=capacity_bytes)
        self._capacity_rows = capacity_bytes // self._row_bytes
        self._rerank = True
        entries = self._entries
        while len(entries) > self._capacity_rows:
            victim = next(iter(entries))
            del entries[victim]
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
        if self._counts.get(incoming, 0) >= coldest_count:
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
        count_of = self._counts.get
        while heap:
            count, seq, address = heap[0]
            if entry_seq(address) != seq:
                heapq.heappop(heap)
                continue
            current = count_of(address, 0)
            if current != count:
                heapq.heapreplace(heap, (current, seq, address))
                continue
            return heap[0]
        return None

    def _rebuild_heap(self) -> None:
        count_of = self._counts.get
        self._heap = [(count_of(address, 0), seq, address) for address, seq in self._entries.items()]
        heapq.heapify(self._heap)

    def _curate(self) -> None:
        """Re-curate the HTR buffer to hold the most-counted rows.

        Right after a curation the buffer holds exactly the top rows, so a
        resident row that must go either left the top this time or was
        inserted by a miss since: the tail of the resident map from the
        previous curation's seq mark.  Only building the wanted set and
        taking its newcomers walk the whole top-k.
        """
        self._accesses_since_curate = 0
        by_rank = self._by_rank
        previous = self._top_rank
        ranks = self._rank_hottest()
        # Built in rank order: the set's iteration order decides which
        # newcomer gets which insertion seq.
        desired = set(map(by_rank.__getitem__, ranks.tolist()))
        entries = self._entries
        # Taken against the full resident map, the difference iterates in
        # the order ``desired - set(entries)`` does.
        newcomers = desired.difference(entries)
        # The unwanted rows among those misses inserted since the mark
        # (the map's tail), then the previous top rows that left the top
        # and were resident since the mark.
        mark = self._curated_seq
        evicted = []
        for addr, seq in reversed(entries.items()):
            if seq < mark:
                break
            if addr not in desired:
                evicted.append(addr)
        in_top = self._flags
        in_top[ranks] = True
        left = previous[~in_top[previous]]
        in_top[ranks] = False
        for addr in map(by_rank.__getitem__, left.tolist()):
            if entries.get(addr, mark) < mark:
                evicted.append(addr)
        for addr in evicted:
            del entries[addr]
        self._evictions += len(evicted)
        # Survivors keep valid lower-bound heap entries; only newcomers are
        # pushed, and the evicted rows' entries are dropped lazily.  The
        # newcomers fit: survivors and newcomers together are ``desired``.
        heap = self._heap
        counts = self._counts
        seq = self._insertions
        for addr in newcomers:
            entries[addr] = seq
            heapq.heappush(heap, (counts[addr], seq, addr))
            seq += 1
        self._insertions = self._curated_seq = seq
        if len(heap) > 2 * len(entries):
            self._rebuild_heap()

    def _rank_hottest(self) -> np.ndarray:
        """First-seen ranks of the ``capacity_rows`` hottest rows, hottest first.

        Same rows and order as ``Counter(counts).most_common(capacity_rows)``.
        A row neither probed since the previous curation nor in its top-k
        kept its count while every top-k row's count could only grow, so it
        still ranks below all k of them: the new top-k is the best k of the
        previous one and the probed rows, re-keyed.  After a resize, every
        counted row is re-keyed against an empty top-k.  Only the rows
        counted since the previous curation get first-seen ranks, read from
        the counter's end.
        """
        counts = self._counts
        first_seen = self._first_seen
        by_rank = self._by_rank
        ranked = len(by_rank)
        if len(counts) > ranked:
            tail = list(islice(reversed(counts), len(counts) - ranked))
            tail.reverse()
            first_seen.update(zip(tail, range(ranked, len(counts))))
            by_rank += tail
            if len(by_rank) > len(self._flags):
                # Grown by doubling: amortized O(1) per newly counted row.
                grown = max(len(by_rank), 2 * len(self._flags))
                self._flags = np.concatenate(
                    (self._flags, np.zeros(grown - len(self._flags), dtype=bool))
                )
        touched = self._touched
        top_rank, top_count = self._top_rank, self._top_count
        if self._rerank:
            self._rerank = False
            touched = counts
            top_rank = top_count = top_rank[:0]
        size = len(touched)
        ranks = np.fromiter(map(first_seen.get, touched), np.int64, size)
        hits = np.fromiter(map(counts.get, touched), np.int64, size)
        self._touched.clear()
        # The previous top rows keep their columns unless touched since.
        touched_rank = self._flags
        touched_rank[ranks] = True
        kept = ~touched_rank[top_rank]
        touched_rank[ranks] = False
        ranks = np.concatenate((top_rank[kept], ranks))
        hits = np.concatenate((top_count[kept], hits))
        if len(by_rank) > _RANK_LIMIT or (hits.size and hits.max() >= _COUNT_LIMIT):
            raise OverflowError("HTR counts or ranks past the curation sort key's range")
        # Unique per row: count descending, then first-seen rank.  The kept
        # rows are one sorted run, which a stable sort merges.
        order = np.argsort(ranks - (hits << 32), kind="stable")[: self._capacity_rows]
        self._top_rank = ranks[order]
        self._top_count = hits[order]
        return self._top_rank

    def reset_stats(self) -> None:
        self._hits = 0
        self._misses = 0


__all__ = ["OnSwitchBuffer"]
