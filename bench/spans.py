"""Span aggregation and a draw-counting RNG for the benchmark.

Spans are recorded only by the benchmark's own code, around its calls into
the public functions of each wittlat module; the program itself is not
instrumented.  Spans are aggregated in memory per name (calls, inclusive
time, self time) and read out when the run ends.
"""

import random
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Per-name call count, inclusive time and self time of spans.

    A span's self time is its duration minus the time covered by the spans
    opened inside it.
    """

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self._child_s = []  # one accumulator per open span

    def wrap(self, name, fn):
        """`fn` with a span named `name` around every call."""
        calls, total_s, self_s, child_s = self.calls, self.total_s, self.self_s, self._child_s

        def traced(*args, **kwargs):
            child_s.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = child_s.pop()
                calls[name] += 1
                total_s[name] += dt
                self_s[name] += dt - inner
                if child_s:
                    child_s[-1] += dt

        return traced


def untraced(name, fn):
    """The `wrap` of a run without tracing: the function itself."""
    return fn


class CountingRandom(random.Random):
    """random.Random that counts its randrange calls.

    Only randrange is overridden, so the stream is the one random.Random
    produces for the same seed.
    """

    draws = 0

    def randrange(self, *args, **kwargs):
        self.draws += 1
        return super().randrange(*args, **kwargs)
