"""Access-frequency tracking ("page heatmaps", §IV-B2)."""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Tuple


class AccessTracker:
    """Counts accesses per key (page id, row address, device id, ...).

    Hosts use one tracker per device to build page heatmaps; the on-switch
    address profiler uses a tracker over row addresses to rank HTR buffer
    candidates.
    """

    def __init__(self) -> None:
        self._counts: Counter = Counter()
        self._total = 0
        self._resets = 0

    @property
    def total(self) -> int:
        return self._total

    @property
    def resets(self) -> int:
        """How many times counts went down (:meth:`reset` or :meth:`decay`).

        Between two changes of this number every count only grows and
        keys keep their first-seen order, which incremental rankers (HTR
        curation) rely on.
        """
        return self._resets

    def record(self, key: int, weight: int = 1) -> None:
        """Record ``weight`` accesses to ``key``."""
        self._counts[key] += weight
        self._total += weight

    def record_many(self, keys: Iterable[int]) -> None:
        """Record one access per key in ``keys`` (the batched :meth:`record`).

        Exactly equivalent to ``for key in keys: self.record(key)`` — counts,
        totals and the counter's insertion order (which breaks ties in
        :meth:`hottest`/:meth:`coldest`) all match the scalar loop — but the
        counting happens in C via ``Counter.update``.
        """
        if not isinstance(keys, (list, tuple)):
            keys = list(keys)
        self._counts.update(keys)
        self._total += len(keys)

    def record_counts(self, counts: Dict[int, int]) -> None:
        """Merge pre-aggregated ``{key: count}`` pairs into the tracker.

        Used by the vectorized engine to flush access counts buffered over a
        batch; equivalent to ``record(key, count)`` per pair.
        """
        self._counts.update(counts)
        self._total += sum(counts.values())

    def count(self, key: int) -> int:
        return self._counts.get(key, 0)

    def hottest(self, k: int) -> List[Tuple[int, int]]:
        """The ``k`` most accessed keys as (key, count), hottest first.

        Equal counts rank in first-seen order, the order in which keys
        entered the tracker.
        """
        return self._counts.most_common(k)

    def coldest(self, k: int) -> List[Tuple[int, int]]:
        """The ``k`` least accessed tracked keys as (key, count)."""
        items = sorted(self._counts.items(), key=lambda kv: (kv[1], kv[0]))
        return items[:k]

    def frequency(self, key: int) -> float:
        """Relative access frequency of ``key`` in [0, 1]."""
        if self._total == 0:
            return 0.0
        return self._counts.get(key, 0) / self._total

    def keys(self) -> Iterable[int]:
        return self._counts.keys()

    def as_dict(self) -> Dict[int, int]:
        return dict(self._counts)

    def decay(self, factor: float = 0.5) -> None:
        """Decay all counts; drops keys that reach zero."""
        if not 0.0 <= factor <= 1.0:
            raise ValueError("decay factor must be in [0, 1]")
        decayed: Counter = Counter()
        total = 0
        for key, value in self._counts.items():
            new_value = int(value * factor)
            if new_value > 0:
                decayed[key] = new_value
                total += new_value
        self._counts = decayed
        self._total = total
        self._resets += 1

    def merge(self, other: "AccessTracker") -> None:
        """Merge another tracker's counts into this one."""
        self._counts.update(other._counts)
        self._total += other._total

    def reset(self) -> None:
        self._counts.clear()
        self._total = 0
        self._resets += 1


__all__ = ["AccessTracker"]
