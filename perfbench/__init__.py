"""The simulator's benchmark: host lookups/s and simulated tails per workload.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload from a single process (no worker pool, no threads) and
prints one JSON result line; ``BENCHMARK.json`` at the repository root
lists the workloads and metrics.  The benchmark only calls the library's
public functions from its own files and never edits ``src/``:

* :mod:`perfbench.workloads` — the four workloads and the sessions they run;
* :mod:`perfbench.checks` — the per-session result checks and ``sim_digest``;
* :mod:`perfbench.tracing` — the outside-in span recorder of the traced run;
* :mod:`perfbench.bench` — the measurement loops and the result line.
"""
