"""Measurement: timed item loop, fresh-process set-up probes, metric sets.

Importing this module imports wittlat, so run.py puts the checkout's src/
on sys.path first.
"""

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 9
CLI_PROBES = 5
# item_tail_us is p95 in every workload: a fixed percentile keeps its
# meaning when a faster program completes more items, and higher ones were
# dominated by host noise where the bounds were set.
TAIL_Q = 95
TAIL_LADDER = (TAIL_Q, 90, 75, 50)
PROBE_TIMEOUT_S = 60
REF_NOMINAL_S = 1e-3
REF_EVERY_S = 0.04


def nearest_rank(sorted_vals, q):
    return sorted_vals[max(0, math.ceil(q / 100 * len(sorted_vals)) - 1)]


def tail_percentile(count):
    """TAIL_Q, or the next lower percentile on the ladder when fewer than
    ten of `count` items lie beyond it."""
    for q in TAIL_LADDER:
        if count - math.ceil(q / 100 * count) >= 10:
            return q
    return TAIL_LADDER[-1]


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def reference_loop():
    """Fixed pure-Python work of the kinds in wittlat's inner loops: integer
    arithmetic, small objects, tuples, calls and small hash tables.  It
    takes 1 to 3 ms, depending on the host's load."""
    acc = 0
    cells = []
    seen = {}
    for i in range(2000):
        t = i * 2654435761 % 65521
        acc = (acc + t * t) % 1000003
        c = _Cell(t, acc)
        cells.append((c.a, c.b % 7))
        seen[t & 63] = seen.get(acc & 63, 0) + 1
        if len(cells) > 8:
            cells.clear()
    return acc


def reference_s():
    t0 = perf_counter()
    reference_loop()
    return perf_counter() - t0


class Phase:
    """Whole rounds of a workload's items, run until `seconds` have passed,
    at least `min_items` items are done and the workload's minimum number
    of rounds is reached.  Only the item call is timed.  Rounds cycle
    through `runs`, the item callables compared in one phase.

    The host's CPU speed drifts by tens of percent over seconds, so the
    reference loop is timed between items, at least every REF_EVERY_S of
    item time and at the end of each round.  Item times are scaled to a CPU
    on which the loop takes REF_NOMINAL_S, using the mean of the two
    reference timings around them.
    """

    def __init__(self, wl, runs, seconds, min_items):
        self.durations, self.refs = [], []
        self.round_rates = [[] for _ in runs]
        self.raw_rates = [[] for _ in runs]
        self.failed = 0
        rounds = wl.rounds()
        deadline = perf_counter() + seconds
        self.refs.append(reference_s())
        done, min_rounds = 0, max(wl.min_rounds, len(runs))
        while done < min_rounds or len(self.durations) < min_items or perf_counter() < deadline:
            which = done % len(runs)
            run, batch = runs[which], next(rounds)
            raw, scaled, pending = [], [], []
            for k, inp in enumerate(batch):
                t0 = perf_counter()
                try:
                    out = run(inp)
                except Exception as exc:  # an item that raises is a failed item
                    out = exc
                pending.append(perf_counter() - t0)
                if isinstance(out, Exception):
                    self._fail("".join(traceback.format_exception(out)))
                else:
                    try:
                        if not wl.check(inp, out):
                            self._fail(f"{wl.name}: output check failed for input {inp!r}")
                    except Exception:
                        self._fail(traceback.format_exc())
                if sum(pending) >= REF_EVERY_S or k == len(batch) - 1:
                    self.refs.append(reference_s())
                    scale = REF_NOMINAL_S / ((self.refs[-2] + self.refs[-1]) / 2)
                    raw.extend(pending)
                    scaled.extend(dt * scale for dt in pending)
                    pending = []
            self.durations.extend(scaled)
            self.raw_rates[which].append(len(batch) / sum(raw))
            self.round_rates[which].append(len(batch) / sum(scaled))
            done += 1

    def _fail(self, message):
        if not self.failed:
            print(message, file=sys.stderr)
        self.failed += 1

    def items_per_s(self, which=0):
        """Median over the rounds of runs[which] of items per normalized
        second of item time."""
        return statistics.median(self.round_rates[which])


def spawn(argv, env=None):
    """Run a child to completion; return (perf_counter at spawn, stdout)."""
    t0 = perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, env=env,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return t0, done.stdout


def setup_probes(name, seed):
    """Medians over fresh interpreters of (spawn until the first item is
    ready, import time, ring-building time), each normalized by the
    reference loop timed in the same probe."""
    total, imports, rings, raw = [], [], [], []
    for _ in range(SETUP_PROBES):
        t0, out = spawn([sys.executable, str(BENCH / "probe.py"), name, str(seed)])
        rec = json.loads(out.strip().splitlines()[-1])
        scale = REF_NOMINAL_S / rec["ref_s"]
        raw.append(rec["ready"] - t0)
        total.append(raw[-1] * scale)
        imports.append(rec["import_s"] * scale)
        rings.append(rec["ring_build_s"] * scale)
    print(f"metric raw.setup_s = {statistics.median(raw)} s")
    return statistics.median(total), statistics.median(imports), statistics.median(rings)


def cli_probe():
    """Median wall time of a trivial `wittlat` command in a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(CLI_PROBES):
        t0, out = spawn(
            [sys.executable, "-m", "wittlat.cli", "strata", "--n", "2", "--r", "1"], env)
        times.append(perf_counter() - t0)
        if len(json.loads(out)["strata"]) != 2:
            raise RuntimeError("`wittlat strata --n 2 --r 1` printed a wrong poset")
    return statistics.median(times)


def end_to_end(wl_cls, seed, seconds):
    """Untraced run: (workload, phases, end-to-end metrics)."""
    setup_s, _, _ = setup_probes(wl_cls.name, seed)
    wl = wl_cls(seed)
    api = workloads.make_api(spans.untraced)
    min_items = round(10 / (1 - TAIL_Q / 100))
    phase = Phase(wl, [lambda inp: wl.run(api, inp)], seconds, min_items)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    durations = sorted(phase.durations)
    q = tail_percentile(len(durations))
    print(f"note item_tail_us is p{q} of {len(durations)} items")
    print(f"metric raw.items_per_s = {statistics.median(phase.raw_rates[0])} 1/s")
    print(f"metric reference_loop_s = {statistics.median(phase.refs)} s")
    return wl, [phase], {
        "setup_s": setup_s,
        "items_per_s": phase.items_per_s(),
        "item_p50_us": nearest_rank(durations, 50) * 1e6,
        "item_tail_us": nearest_rank(durations, q) * 1e6,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(wl_cls, seed, seconds):
    """Untraced and traced rounds in turn over one item sequence:
    (workload, phases, per-layer metrics).  Shares are self time over
    traced item time."""
    _, import_s, ring_build_s = setup_probes(wl_cls.name, seed)
    metrics = {"setup.import_s": import_s, "setup.ring_build_s": ring_build_s,
               "setup.cli_s": cli_probe()}
    wl = wl_cls(seed)
    tracer = spans.Tracer()
    plain_api = workloads.make_api(spans.untraced)
    traced_api = workloads.make_api(tracer.wrap)
    runs = [lambda inp: wl.run(plain_api, inp),
            tracer.wrap("item", lambda inp: wl.run(traced_api, inp))]
    phase = Phase(wl, runs, seconds, 0)
    item_s = tracer.total_s["item"]
    for name in workloads.SPANS + ("item",):
        metrics[f"{name}.calls"] = tracer.calls[name]
        metrics[f"{name}.self_s"] = tracer.self_s[name]
        metrics[f"{name}.share"] = tracer.self_s[name] / item_s
    for module in workloads.LAYER_MODULES:
        self_s = sum(v for k, v in tracer.self_s.items() if k.startswith(module + "."))
        metrics[f"{module}.self_s"] = self_s
        metrics[f"{module}.share"] = self_s / item_s
    metrics["trace.base_items_per_s"] = phase.items_per_s(0)
    metrics["trace.items_per_s_ratio"] = phase.items_per_s(1) / phase.items_per_s(0)
    return wl, [phase], metrics
