"""Request routers: which shard serves which SLS request.

A fleet places one table shard per rack (:class:`TablePartition` splits
the embedding tables into contiguous, balanced ranges) and a routing tier
in front of the racks decides which shard serves each request.  Three
policies ship, mirroring the routing tiers production DLRM deployments
actually run:

``table-affinity``
    Route by the request's table through the partition — the only policy
    under which a shard never touches rows outside its own table range
    (the sharded-parameter-server layout).
``hash``
    Seeded content hash of the request (table, sample, bag shape).  A
    pure function of the request — stable under arbitrary request
    reordering — so any frontend replica routes identically with no
    shared state.
``power-of-two-choices``
    Two seeded hash candidates per request; the one with the lower
    assigned load (lookups routed so far) wins, ties broken by a seeded
    coin — never by shard index or dict order.  Sequentially
    deterministic: replaying the same request stream reproduces the
    identical assignment.

Routers are small frozen dataclasses (picklable, hashable — they ride
inside :class:`~repro.api.session.RunSpec`); :meth:`Router.bind`
instantiates the per-pass mutable state so one router object can be
shared by every shard view and every worker process.

A bound router routes a whole window of bags at once:
:meth:`BoundRouter.route` takes the five key columns of
:func:`_request_key` (table, sample, length, first row, last row) and
returns one shard per bag, in numpy.  The scalar :func:`_mix64` and
:func:`_request_key` stay the reference the columns are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

import numpy as np

__all__ = [
    "ROUTER_POLICIES",
    "BoundRouter",
    "HashRouter",
    "PowerOfTwoRouter",
    "Router",
    "TableAffinityRouter",
    "TablePartition",
    "make_router",
    "request_keys",
]

#: Router policy names accepted by ``Simulation.fleet(...)`` / the CLI.
ROUTER_POLICIES: Tuple[str, ...] = ("hash", "power-of-two-choices", "table-affinity")

_MASK64 = (1 << 64) - 1


def _mix64(*values: int) -> int:
    """Deterministic 64-bit mix of integers (splitmix64-style finalizer).

    Python's ``hash()`` is stable for ints but folds tuples through a
    process-wide siphash for str members; this mixer depends on nothing
    but the operands, so routing decisions are identical across
    processes, platforms and ``PYTHONHASHSEED`` values.
    """
    acc = 0x9E3779B97F4A7C15
    for value in values:
        acc = (acc + (int(value) & _MASK64)) & _MASK64
        acc = (acc ^ (acc >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
        acc = (acc ^ (acc >> 27)) * 0x94D049BB133111EB & _MASK64
        acc ^= acc >> 31
    return acc


def _request_key(request) -> Tuple[int, int, int, int, int]:
    """The content tuple hash-based policies key on.

    Everything here is a property of the request itself — never its
    position in the stream — which is what makes hash routing stable
    under reordering.  The bag's first/last row indices disambiguate
    same-shaped bags of the same (table, sample) from different batches
    well enough to spread them, while staying O(1) per request.
    """
    rows = request.rows
    first = int(rows[0]) if len(rows) else -1
    last = int(rows[-1]) if len(rows) else -1
    return (request.table, request.sample, request.num_candidates, first, last)


def request_keys(requests: Sequence) -> Tuple[np.ndarray, ...]:
    """The :func:`_request_key` columns of a request list (``route``'s input)."""
    keys = np.array([_request_key(request) for request in requests], dtype=np.int64)
    return tuple(keys.reshape(-1, 5).T)


_C1 = np.uint64(0xBF58476D1CE4E5B9)
_C2 = np.uint64(0x94D049BB133111EB)


def _mix64_columns(state: int, columns: Sequence[np.ndarray]) -> np.ndarray:
    """:func:`_mix64` continued from ``state`` over key columns, one value per bag.

    ``_mix64(*prefix, *key) == _mix64_columns(_mix64(*prefix), key)``
    element for element: ``uint64`` arithmetic wraps modulo 2**64 like the
    scalar masks, and an ``int64`` viewed as ``uint64`` is its two's
    complement, as ``int(value) & _MASK64`` is.
    """
    acc = np.full(len(columns[0]), state, dtype=np.uint64)
    for column in columns:
        acc += np.asarray(column, dtype=np.int64).view(np.uint64)
        acc ^= acc >> np.uint64(30)
        acc *= _C1
        acc ^= acc >> np.uint64(27)
        acc *= _C2
        acc ^= acc >> np.uint64(31)
    return acc


@dataclass(frozen=True)
class TablePartition:
    """Contiguous, balanced split of ``num_tables`` tables over ``num_shards``.

    The first ``num_tables % num_shards`` shards hold one extra table;
    with more shards than tables the trailing shards own empty ranges
    (and receive no table-affinity traffic at all).
    """

    num_tables: int
    num_shards: int

    def __post_init__(self) -> None:
        if self.num_tables < 0:
            raise ValueError("num_tables must be non-negative")
        if self.num_shards <= 0:
            raise ValueError("num_shards must be positive")

    def range_of(self, shard: int) -> Tuple[int, int]:
        """Half-open table range ``[lo, hi)`` owned by ``shard``."""
        if not 0 <= shard < self.num_shards:
            raise ValueError(f"shard {shard} out of range [0, {self.num_shards})")
        base, extra = divmod(self.num_tables, self.num_shards)
        lo = shard * base + min(shard, extra)
        hi = lo + base + (1 if shard < extra else 0)
        return lo, hi

    def shard_of_table(self, table: int) -> int:
        """The shard owning ``table`` (inverse of :meth:`range_of`)."""
        if not 0 <= table < self.num_tables:
            raise ValueError(f"table {table} out of range [0, {self.num_tables})")
        base, extra = divmod(self.num_tables, self.num_shards)
        boundary = extra * (base + 1)
        if table < boundary:
            return table // (base + 1)
        return extra + (table - boundary) // base

    def ranges(self) -> Iterator[Tuple[int, int]]:
        for shard in range(self.num_shards):
            yield self.range_of(shard)


class BoundRouter:
    """A router bound to a fleet shape: ``route(*key columns) -> shards``.

    Holds whatever per-pass mutable state the policy needs (the
    power-of-two-choices load counters); every replay pass over a stream
    binds afresh, so repeated passes assign identically.
    """

    def __init__(self, policy: "Router", num_shards: int, num_tables: int) -> None:
        self.policy = policy
        self.num_shards = num_shards
        self.partition = TablePartition(num_tables, num_shards)

    def route(
        self,
        table: np.ndarray,
        sample: np.ndarray,
        length: np.ndarray,
        first: np.ndarray,
        last: np.ndarray,
    ) -> np.ndarray:
        """The shard of every bag of one window, as an ``int64`` array.

        The columns are :func:`_request_key` per bag, in stream order;
        stateful policies carry their state from one window to the next.
        """
        raise NotImplementedError


class _BoundHash(BoundRouter):
    def route(self, table, sample, length, first, last) -> np.ndarray:
        mixed = _mix64_columns(_mix64(self.policy.seed), (table, sample, length, first, last))
        return (mixed % np.uint64(self.num_shards)).astype(np.int64)


class _BoundPowerOfTwo(BoundRouter):
    def __init__(self, policy: "Router", num_shards: int, num_tables: int) -> None:
        super().__init__(policy, num_shards, num_tables)
        self.loads = [0] * num_shards

    def route(self, table, sample, length, first, last) -> np.ndarray:
        key = (table, sample, length, first, last)
        seed, shards = self.policy.seed, np.uint64(self.num_shards)
        firsts = (_mix64_columns(_mix64(seed, 1), key) % shards).tolist()
        seconds = (_mix64_columns(_mix64(seed, 2), key) % shards).tolist()
        coins = (_mix64_columns(_mix64(seed, 3), key) & np.uint64(1)).tolist()
        loads = self.loads
        choices = []
        # Each choice depends on the loads the previous ones left, so only
        # this comparison runs per bag.
        for one, two, coin, weight in zip(firsts, seconds, coins, np.asarray(length).tolist()):
            if loads[one] < loads[two]:
                choice = one
            elif loads[two] < loads[one]:
                choice = two
            else:
                # Equal load (including one == two): a seeded coin picks,
                # so ties never resolve by shard index or enumeration order.
                choice = one if coin else two
            loads[choice] += weight
            choices.append(choice)
        return np.array(choices, dtype=np.int64)


class _BoundTableAffinity(BoundRouter):
    def __init__(self, policy: "Router", num_shards: int, num_tables: int) -> None:
        super().__init__(policy, num_shards, num_tables)
        self.owner = np.array(
            [self.partition.shard_of_table(t) for t in range(num_tables)], dtype=np.int64
        )

    def route(self, table, sample, length, first, last) -> np.ndarray:
        table = np.asarray(table, dtype=np.int64)
        if table.size and not 0 <= int(table.min()) <= int(table.max()) < len(self.owner):
            raise ValueError(f"table out of range [0, {len(self.owner)})")
        return self.owner[table]


@dataclass(frozen=True)
class Router:
    """Base request-routing policy (frozen, picklable; see module docstring)."""

    seed: int = 0

    #: Policy name as accepted by :func:`make_router` / the CLI.
    policy = ""

    def bind(self, num_shards: int, num_tables: int) -> BoundRouter:
        """Bind to a fleet shape, creating fresh per-pass routing state."""
        raise NotImplementedError


@dataclass(frozen=True)
class HashRouter(Router):
    """Stateless seeded content hash: reordering-stable, shared-nothing."""

    policy = "hash"

    def bind(self, num_shards: int, num_tables: int) -> BoundRouter:
        return _BoundHash(self, num_shards, num_tables)


@dataclass(frozen=True)
class PowerOfTwoRouter(Router):
    """Two seeded candidates, lighter assigned load wins, seeded tie-break."""

    policy = "power-of-two-choices"

    def bind(self, num_shards: int, num_tables: int) -> BoundRouter:
        return _BoundPowerOfTwo(self, num_shards, num_tables)


@dataclass(frozen=True)
class TableAffinityRouter(Router):
    """Route by table ownership: requests never leave their table's shard."""

    policy = "table-affinity"

    def bind(self, num_shards: int, num_tables: int) -> BoundRouter:
        return _BoundTableAffinity(self, num_shards, num_tables)


_ROUTERS = {
    "hash": HashRouter,
    "power-of-two-choices": PowerOfTwoRouter,
    "table-affinity": TableAffinityRouter,
}


def make_router(policy: str, seed: int = 0) -> Router:
    """Build the :class:`Router` for a policy name (see :data:`ROUTER_POLICIES`)."""
    try:
        factory = _ROUTERS[policy]
    except KeyError:
        known = ", ".join(ROUTER_POLICIES)
        raise ValueError(f"unknown router policy {policy!r}; expected one of: {known}") from None
    return factory(seed=int(seed))
