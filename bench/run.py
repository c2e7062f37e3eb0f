"""wittlat benchmark: one seeded, single-process workload per invocation.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {census,strata_cover,extension,poset,all} \
        --seed N --seconds S --trace {0,1}

The program is imported from the checkout's src/ (nothing is installed).
With --trace 0 the run reports the end-to-end metrics named in
BENCHMARK.json; with --trace 1 it alternates untraced and traced rounds
and reports the per-layer metrics.  Readable `metric` lines
come first; the last line of stdout is the JSON result.  See README.md
next to this file.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOADS = ("census", "strata_cover", "extension", "poset")


def main(argv=None):
    parser = argparse.ArgumentParser(description="wittlat benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        # one fresh process per workload, so peak RSS and state stay separate
        codes = [subprocess.run([sys.executable, __file__, "--workload", w,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for w in WORKLOADS]
        return max(codes)
    if not (SRC / "wittlat" / "__init__.py").is_file():
        print(f"error: no wittlat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import wittlat
    if not Path(wittlat.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: wittlat was imported from {wittlat.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import measure
    import workloads

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"]
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}
    print("env " + json.dumps({
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed, "workload": args.workload, "trace": args.trace,
        "seconds": args.seconds}))

    measure_fn = measure.per_layer if args.trace else measure.end_to_end
    wl, phases, metrics = measure_fn(workloads.WORKLOADS[args.workload],
                                     args.seed, args.seconds)
    failed_late, checks_ok, extra = wl.finish()
    metrics.update(extra)
    attempted = sum(len(ph.durations) for ph in phases)
    failed = sum(ph.failed for ph in phases) + failed_late

    missing = sorted(set(units) - set(metrics))
    if missing and not args.trace:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    for name, value in sorted(metrics.items()):
        print(f"metric {name} = {value} {units.get(name, 'count')}")
    print(f"metric failed_ratio = {failed / attempted} ratio")
    print(json.dumps({
        "correct": failed == 0 and checks_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
