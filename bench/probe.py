"""Set-up probe, run in a fresh interpreter by run.py.

Usage: python3 bench/probe.py <workload> <seed>

Imports wittlat from the checkout's src/, builds the workload's rings and
its first round of inputs, then prints one JSON line: the perf_counter
reading when the first item was ready (CLOCK_MONOTONIC, so the parent can
subtract its own reading taken before the spawn), the import time, the
ring-building time, and the time of the reference loop run afterwards in
this process, by which the parent normalizes the others.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

t0 = perf_counter()
import wittlat  # noqa: E402,F401

t1 = perf_counter()
import workloads  # noqa: E402

t2 = perf_counter()
wl = workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
t3 = perf_counter()
next(wl.rounds())
ready = perf_counter()

import measure  # noqa: E402

ref_s = sorted(measure.reference_s() for _ in range(3))[1]
print(json.dumps({"ready": ready, "import_s": t1 - t0, "ring_build_s": t3 - t2,
                  "ref_s": ref_s}))
