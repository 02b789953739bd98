"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload replay --seed 1 --seconds 15 --trace 0

The library is imported from ``src/`` next to this directory; without it
the script exits with an error before measuring anything.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"error: the library's sources are missing: {os.path.join(SRC, 'repro')}")
    sys.path[:0] = [SRC, ROOT]
    from perfbench.bench import main

    sys.exit(main())
