"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at a reduced
("laptop") scale, prints the same rows/series the paper reports, and asserts
the qualitative shape (who wins, roughly by how much, where crossovers
fall).  Absolute numbers are not expected to match the paper — the substrate
is a functional simulator, not the authors' testbed.
"""

import json
import os
import platform
import statistics
import time

import pytest

from repro.experiments.common import EvaluationScale

#: The scale used by the benchmark suite: the default evaluation scale with
#: fewer batches so the whole suite finishes in a few minutes.
BENCH_SCALE = EvaluationScale(num_batches=2)


@pytest.fixture(scope="session")
def scale():
    return BENCH_SCALE


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def paired_seconds(runs, repeats):
    """Time every callable of ``runs`` once per repeat, back to back.

    ``runs`` maps a side's name to a no-argument callable.  The order
    alternates between repeats, so a slow spell of the host lands on both
    sides of a pair.  Returns ``{name: [seconds per repeat]}`` and
    ``{name: the last value the callable returned}``.
    """
    names = list(runs)
    seconds = {name: [] for name in names}
    results = {}
    for repeat in range(repeats):
        for name in names if repeat % 2 == 0 else names[::-1]:
            started = time.perf_counter()
            results[name] = runs[name]()
            seconds[name].append(time.perf_counter() - started)
    return seconds, results


def paired_ratio(numerators, denominators):
    """The median over repeats of the ratio of two sides' summed times.

    Each argument holds one list of per-repeat times per row (a system, a
    mode); a repeat's times are summed over the rows before the ratio.
    """
    return statistics.median(
        sum(n) / sum(d) for n, d in zip(zip(*numerators), zip(*denominators))
    )


def best_of_ratio(numerators, denominators):
    """The ratio of the rows' summed fastest times, the best-of-N statistic."""
    return sum(map(min, numerators)) / sum(map(min, denominators))


def _flag(name: str) -> bool:
    return os.environ.get(name, "") not in ("", "0")


def write_baseline(path, data: dict) -> None:
    """Write one ``BENCH_*.json`` baseline, only when recording was asked for.

    ``python -m repro bench`` sets ``REPRO_BENCH_RECORD=1`` outside smoke
    mode; a plain ``pytest`` run and smoke mode (``REPRO_BENCH_SMOKE=1``)
    never write, so running the tests leaves the committed baselines as
    they are.
    """
    if _flag("REPRO_BENCH_RECORD") and not _flag("REPRO_BENCH_SMOKE"):
        path.write_text(json.dumps(data, indent=2) + "\n")


def bench_environment() -> dict:
    """Environment metadata stamped into every ``BENCH_*.json`` baseline.

    Makes trajectory files self-describing: two baselines recorded on
    different interpreters/numpy builds/machines are tellable apart
    without digging through CI logs.
    """
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy ships with the toolchain
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "system": platform.system(),
        "cpus": os.cpu_count(),
        "smoke": _flag("REPRO_BENCH_SMOKE"),
    }
