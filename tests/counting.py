"""Noise-free cost accounting: count the ring protocol calls a computation makes,
and the generated sources it compiles.

`counting(*rings)` swaps the bare-value slots of each ring (`_mul`, `_add`,
`_sub`, `_submul`, `_val`, `_inv`) for wrappers that count each call, and
counts `_divider` calls, the `divide` closures they return and the
`_matrix_kernels(n)` pair (`matmul`, `det`) through class-level wrappers that
count for these rings alone.  Every wrapper returns exactly what it wraps, so
outputs do not change.  Rings are shared instances, so everything is restored
on exit.  A call made inside another counted one is counted too (the product
inside a `divide`, say); code that bound a slot before the context was entered
calls the original and is not counted.

`CountingRandom` counts the draws a sampler takes from its generator, at
`getrandbits` and at `randrange`.
"""

import collections
import contextlib
import random

from wittlat import field
from wittlat.witt import WittRing

SLOTS = ("_mul", "_add", "_sub", "_submul", "_val", "_inv")


def _counted(counts, name, fn):
    if fn is None:  # det is None above n = 4
        return None

    def counted(*args):
        counts[name] += 1
        return fn(*args)
    return counted


@contextlib.contextmanager
def counting(*rings):
    """A Counter of the protocol calls made on `rings` while the context is
    active, keyed by the slot name without its underscore, and "divider",
    "divide", "matmul" and "det"."""
    counts, ids = collections.Counter(), {id(ring) for ring in rings}
    saved = [(ring, name, getattr(ring, name)) for ring in rings for name in SLOTS]
    divider, kernels = WittRing._divider, WittRing._matrix_kernels

    def counting_divider(self, b):
        divide, w = divider(self, b)
        if id(self) not in ids:
            return divide, w
        counts["divider"] += 1
        return _counted(counts, "divide", divide), w

    def counting_kernels(self, n):
        pair = kernels(self, n)
        if id(self) not in ids:
            return pair
        return tuple(_counted(counts, name, fn) for name, fn in zip(("matmul", "det"), pair))

    try:
        for ring, name, fn in saved:
            setattr(ring, name, _counted(counts, name[1:], fn))
        WittRing._divider, WittRing._matrix_kernels = counting_divider, counting_kernels
        yield counts
    finally:
        WittRing._divider, WittRing._matrix_kernels = divider, kernels
        for ring, name, fn in saved:
            setattr(ring, name, fn)


class CountingRandom(random.Random):
    """random.Random that counts its `getrandbits` and `randrange` calls.  The
    randrange wrapper is an instance attribute, so `type(rng).randrange` stays
    random.Random's and witt._draw_below keeps its getrandbits path: a draw
    routed through randrange shows in `randrange_calls` (and its getrandbits
    calls in `getrandbits_calls`, as randrange makes them too)."""

    def __init__(self, seed=None):
        self.getrandbits_calls = self.randrange_calls = 0
        super().__init__(seed)
        randrange = super().randrange

        def counted_randrange(*args, **kwargs):
            self.randrange_calls += 1
            return randrange(*args, **kwargs)
        self.randrange = counted_randrange

    def getrandbits(self, k):
        self.getrandbits_calls += 1
        return super().getrandbits(k)


def compiles(monkeypatch):
    """The filenames of the generated sources compiled from now on, in order:
    field._compiled is the one compile site, so one hook sees every family."""
    compiled = []

    def counting_compile(source, filename, *args):
        compiled.append(filename)
        return compile(source, filename, *args)
    monkeypatch.setattr(field, "compile", counting_compile, raising=False)
    return compiled
