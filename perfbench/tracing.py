"""Outside-in tracing: spans around the library's public methods.

The traced run swaps the public methods of each layer — on the classes
and modules the sessions use — for wrappers that record a span per call,
and swaps the originals back afterwards (:class:`Patches`).  Nothing in
``src/`` changes, and untraced sessions run the unwrapped code.

A span is (name, start, end, parent, run, tag): ``parent`` is the index of
the span open when it started, ``run`` the round it belongs to (negative
for set-up), and ``tag`` a system label or, on ``sls.service_request``, the
request id.  Generator methods (trace windows) get one span per step, so a
window's span covers producing that window and nothing its consumer does.
Spans live in flat arrays in memory and are written out once at the end
(:meth:`Tracer.write`).  A layer's self time is its spans' duration minus
the time covered by their child spans.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

import numpy as np

_MISSING = object()


class Patches:
    """Swaps attributes of classes or modules and restores them on exit."""

    def __init__(self) -> None:
        self._saved: List = []

    def swap(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` by ``make(current)``; inherited ones are shadowed."""
        saved = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, make(getattr(owner, attr)))
        self._saved.append((owner, attr, saved))

    def restore(self) -> None:
        while self._saved:
            owner, attr, saved = self._saved.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


def _as_numpy(values: array, dtype) -> np.ndarray:
    return np.frombuffer(values, dtype=dtype) if len(values) else np.zeros(0, dtype)


class Tracer:
    """In-memory span and count recorder (see the module docstring)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._codes: Dict[str, int] = {}
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run_of = array("q")
        self.tag = array("q")
        #: ``(run, name) -> calls`` of counted (not timed) methods.
        self.counts: Counter = Counter()
        #: Round the next spans and counts belong to.
        self.run = 0
        self._stack = [-1]

    def code(self, text: str) -> int:
        code = self._codes.get(text)
        if code is None:
            code = self._codes[text] = len(self.names)
            self.names.append(text)
        return code

    def __len__(self) -> int:
        return len(self.start)

    def _open(self, code: int, tag: int) -> int:
        index = len(self.start)
        self.name.append(code)
        self.parent.append(self._stack[-1])
        self.run_of.append(self.run)
        self.tag.append(tag)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(self.clock())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, tag: Optional[str] = None) -> Iterator[None]:
        """A span around the benchmark's own code."""
        index = self._open(self.code(name), -1 if tag is None else self.code(tag))
        try:
            yield
        finally:
            self._close(index)

    def wrap(
        self,
        name: str,
        function: Callable,
        tag: Optional[str] = None,
        tag_of: Optional[Callable[[tuple], int]] = None,
    ) -> Callable:
        """``function`` recording one span per call; ``tag_of(args)`` tags it."""
        code = self.code(name)
        fixed_tag = -1 if tag is None else self.code(tag)
        open_span, close_span = self._open, self._close

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = open_span(code, fixed_tag if tag_of is None else tag_of(args))
            try:
                return function(*args, **kwargs)
            finally:
                close_span(index)

        return traced

    def wrap_generator(self, name: str, function: Callable) -> Callable:
        """Generator ``function`` recording one span per produced item."""
        code = self.code(name)
        open_span, close_span = self._open, self._close

        @functools.wraps(function)
        def traced(*args, **kwargs):
            steps = function(*args, **kwargs)
            while True:
                index = open_span(code, -1)
                try:
                    item = next(steps)
                except StopIteration:
                    return
                finally:
                    close_span(index)
                yield item

        return traced

    def counted(self, name: str, function: Callable) -> Callable:
        """``function`` counting its calls under ``name`` for the current round."""
        counts = self.counts

        @functools.wraps(function)
        def counting(*args, **kwargs):
            counts[(self.run, name)] += 1
            return function(*args, **kwargs)

        return counting

    # ------------------------------------------------------------------
    # Reduction and export
    # ------------------------------------------------------------------
    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        duration = _as_numpy(self.end, np.float64) - _as_numpy(self.start, np.float64)
        parent = _as_numpy(self.parent, np.int64)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(self))
        return duration - covered

    def write(self, path: str) -> None:
        """Write every span and count to a compressed ``.npz`` archive."""
        counts = {f"{run}:{name}": value for (run, name), value in self.counts.items()}
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            counts=np.array(json.dumps(counts)),
            name=_as_numpy(self.name, np.int64),
            start=_as_numpy(self.start, np.float64),
            end=_as_numpy(self.end, np.float64),
            parent=_as_numpy(self.parent, np.int64),
            run=_as_numpy(self.run_of, np.int64),
            tag=_as_numpy(self.tag, np.int64),
        )


#: Public methods of a system class and the span each call records.
SYSTEM_SPANS = (
    ("run", "sls.run"),
    ("begin_session", "sls.begin_session"),
    ("finish_session", "sls.finish_session"),
    ("process_request", "sls.process_request"),
    ("process_request_vector", "sls.process_request_vector"),
    ("service_batch_vector", "sls.service_batch_vector"),
    ("build_placement", "memsys.build_placement"),
    ("maintenance", "pagemgmt.maintenance"),
)


def _subclasses(cls: type) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@contextmanager
def instrument(tracer: Tracer, system_classes: Dict[str, type]) -> Iterator[None]:
    """Install the layer wrappers for the duration of the block.

    ``system_classes`` maps each session's system label to its class; the
    label tags that class's spans.
    """
    import repro.api.session as api
    import repro.fleet.executor as fleet_executor
    from repro.fleet.router import BoundRouter
    from repro.fleet.shard import ShardWorkload
    from repro.serve.batcher import DynamicBatcher
    from repro.sls.vector import VectorContext
    from repro.traces.stream import BatchStream
    from repro.traces.workload import StreamingWorkload

    with Patches() as patches:
        for label, cls in system_classes.items():
            for method, name in SYSTEM_SPANS:
                patches.swap(cls, method, lambda f, n=name, t=label: tracer.wrap(n, f, tag=t))
            patches.swap(
                cls, "service_request",
                lambda f: tracer.wrap(
                    "sls.service_request", f, tag_of=lambda args: args[1].request_id
                ),
            )
        for module in (api, fleet_executor):
            patches.swap(module, "build_workload", lambda f: tracer.wrap("traces.build_workload", f))
            patches.swap(module, "build_system", lambda f: tracer.wrap("api.build_system", f))
        patches.swap(VectorContext, "load_window", lambda f: tracer.wrap("vector.load_window", f))
        for method in ("flush_tiered", "flush_all"):
            patches.swap(VectorContext, method, lambda f: tracer.wrap("vector.flush", f))
        patches.swap(DynamicBatcher, "offer", lambda f: tracer.wrap("serve.offer", f))
        for cls in _subclasses(BoundRouter):
            if "route" in vars(cls):
                patches.swap(cls, "route", lambda f: tracer.wrap("fleet.route", f))
        for method in ("iter_windows", "iter_address_arrays"):
            patches.swap(
                StreamingWorkload, method,
                lambda f, n=f"traces.{method}": tracer.wrap_generator(n, f),
            )
        patches.swap(
            ShardWorkload, "iter_windows",
            lambda f: tracer.wrap_generator("fleet.shard_iter_windows", f),
        )
        # One call of a stream's __iter__ is one full pass over the trace.
        for cls in _subclasses(BatchStream):
            if "__iter__" in vars(cls):
                patches.swap(cls, "__iter__", lambda f: tracer.counted("traces.passes", f))
        yield


def _percentile(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _sim_of(result: Any) -> Any:
    """The ``SimResult`` behind a replay, serve or fleet result."""
    if hasattr(result, "combined"):
        return result.combined
    if hasattr(result, "sim"):
        return result.sim
    return result


def round_metrics(
    tracer: Tracer, own: np.ndarray, run: int, sessions: List[Any], batch_of: Dict[int, Any]
) -> Dict[str, float]:
    """Per-layer metrics of one traced round (``PER_LAYER`` in bench.py).

    ``own`` holds :meth:`Tracer.self_times`; ``batch_of`` maps a served
    request id to its batch, which groups a streamed serve's per-request
    dispatch spans into batches.  Layers a workload does not run read 0.
    """
    names = tracer.names
    self_s: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    request_s: Dict[str, float] = defaultdict(float)
    scalar_requests = 0
    vector_requests = 0
    batch_s: Dict[Any, float] = defaultdict(float)
    session_s = 0.0
    run_s: List[float] = []
    vector_code = tracer.code("sls.process_request_vector")
    runs = _as_numpy(tracer.run_of, np.int64)
    for index in np.flatnonzero(runs == run).tolist():
        name = names[tracer.name[index]]
        duration = tracer.end[index] - tracer.start[index]
        self_s[name] += own[index]
        calls[name] += 1
        if name == "bench.session":
            session_s += duration
        elif name == "sls.run":
            run_s.append(duration)
        elif name == "sls.process_request_vector":
            request_s[names[tracer.tag[index]]] += own[index]
            vector_requests += 1
        elif name == "sls.process_request":
            request_s[names[tracer.tag[index]]] += own[index]
            parent = tracer.parent[index]
            if parent < 0 or tracer.name[parent] != vector_code:
                scalar_requests += 1
        elif name == "sls.service_batch_vector":
            batch_s[index] = duration
        elif name == "sls.service_request":
            batch_s[batch_of.get(tracer.tag[index], index)] += duration

    results = [session.result for session in sessions]
    sims = [_sim_of(result) for result in results]
    pifs = [sim for session, sim in zip(sessions, sims) if session.system == "pifs-rec"]
    probes = sum(sim.buffer_hits + sim.buffer_misses for sim in pifs)
    shard_lookups = [sim.lookups for result in results for sim in getattr(result, "per_shard", [])]
    shard_s = run_s if shard_lookups else []
    batch_us = [seconds * 1e6 for seconds in batch_s.values()]
    glue_s = self_s["bench.session"] + self_s["sls.run"]
    return {
        "traces.window_s": self_s["traces.iter_windows"] + self_s["traces.iter_address_arrays"],
        "traces.passes": float(tracer.counts[(run, "traces.passes")]),
        "sls.begin_session_s": self_s["sls.begin_session"],
        "sls.request_s": sum(request_s.values()),
        "sls.request_s.pond": request_s["pond"],
        "sls.request_s.beacon": request_s["beacon"],
        "sls.request_s.pifs-rec": request_s["pifs-rec"],
        "sls.vector_requests": float(vector_requests),
        "sls.scalar_requests": float(scalar_requests),
        "sls.finish_session_s": self_s["sls.finish_session"],
        "vector.load_window_s": self_s["vector.load_window"],
        "vector.flush_s": self_s["vector.flush"],
        "vector.fallbacks": float(sum(
            1 for session in sessions for system in session.systems
            if getattr(system, "_vector_fallback_reason", None)
        )),
        "memsys.placement_s": self_s["memsys.build_placement"],
        "pagemgmt.maintenance_calls": float(calls["pagemgmt.maintenance"]),
        "pagemgmt.maintenance_s": self_s["pagemgmt.maintenance"],
        "pagemgmt.migrations": float(sum(sim.migrations for sim in sims)),
        "pifs.buffer_hit_ratio": sum(sim.buffer_hits for sim in pifs) / probes if probes else 0.0,
        "serve.admit_s": self_s["serve.offer"],
        "serve.dispatch_s": sum(batch_s.values()),
        "serve.batches": float(sum(getattr(result, "batches", 0) for result in results)),
        "serve.batch_p50_us": _percentile(batch_us, 50),
        "serve.batch_p99_us": _percentile(batch_us, 99),
        "fleet.route_s": self_s["fleet.route"],
        "fleet.shard_iter_s": self_s["fleet.shard_iter_windows"],
        "fleet.shard_s_max": max(shard_s, default=0.0),
        "fleet.shard_s_mean": sum(shard_s) / len(shard_s) if shard_s else 0.0,
        "fleet.shard_lookup_imbalance": (
            max(shard_lookups) * len(shard_lookups) / sum(shard_lookups) if shard_lookups else 0.0
        ),
        "session.glue_s": glue_s,
        "trace.coverage": 1.0 - glue_s / session_s if session_s else 0.0,
    }
