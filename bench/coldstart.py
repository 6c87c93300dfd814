"""Cold start of a workload process: import illposed, draw the inputs, report.

Usage: python3 bench/coldstart.py WORKLOAD SEED

Prints the `import illposed` time in milliseconds as soon as the inputs
are ready; run.py times from spawning this process to that line.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
start = time.perf_counter()
import illposed  # noqa: E402,F401

import_ms = (time.perf_counter() - start) * 1000.0
import workloads  # noqa: E402

workloads.make_inputs(sys.argv[1], int(sys.argv[2]))
print(repr(import_ms), flush=True)
