"""Criterion 4 at n = 2, counted exhaustively and in closed form.

Over Z/p^N with N = 2r + 1, a 2 x 2 matrix A = [[a, b], [c, d]] lies in the
cover when v(ad - bc) = 2r.  Its divisor type is then (2r - w, w) with w
the least valuation of the four entries, so closure membership at index i
is w >= i.  The corner predicate at i reads the corner entry a and the
corner minor, which at n = 2 is d: v(d) >= i and v(a) <= 2r - i.  The
counts below come from numpy over every matrix of the ring, with their own
valuation table and no wittlat code; classify is then checked against them
on a seeded sample.  Under the counting measure the share of the cover
where the predicate holds outside the closure is a rational function of
q = p.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from wittlat.matrix import WittMat
from wittlat.strata import classify
from wittlat.witt import witt_ring


def _valuations(p, N):
    """v_p(x) for x in [0, p^N), with v(0) = N."""
    q = p ** N
    v = np.zeros(q, dtype=np.int64)
    v[0] = N
    for k in range(1, N):
        v[p ** k::p ** k] = k
    return v


def _census(p, r):
    """(entries, cover, violations) over all 2 x 2 matrices over Z/p^(2r+1).

    entries holds the four entry arrays, broadcast to one axis per entry;
    cover and violations[i] are boolean arrays over the same grid."""
    nr, N = 2 * r, 2 * r + 1
    v, x = _valuations(p, N), np.arange(p ** N)
    a, b, c, d = (x.reshape([-1 if k == axis else 1 for k in range(4)]) for axis in range(4))
    va, vb, vc, vd = v[a], v[b], v[c], v[d]
    cover = v[(a * d - b * c) % p ** N] == nr
    least = np.minimum(np.minimum(va, vb), np.minimum(vc, vd))
    violations = {i: cover & (vd >= i) & (va <= nr - i) & (least < i)
                  for i in range(1, r + 1)}
    return (a, b, c, d), cover, violations


def _rate_i1(q, r):
    """(2q^{2r} + q^{2r-1} - 2)(q - 1) / ((q + 1)(q^{2r+1} - 1)), the share at i = 1."""
    q = Fraction(q)
    return (2 * q ** (2 * r) + q ** (2 * r - 1) - 2) * (q - 1) / ((q + 1) * (q ** (2 * r + 1) - 1))


def _rate_r2_i2(q):
    """(3q^3 + 2q^2 + q - 4)(q - 1) / ((q + 1)(q^5 - 1)), the share at (r, i) = (2, 2)."""
    q = Fraction(q)
    return (3 * q ** 3 + 2 * q ** 2 + q - 4) * (q - 1) / ((q + 1) * (q ** 5 - 1))


# (p, r, cover size, {i: (violations, their share of the cover)})
COUNTS = [
    (2, 1, 672, {1: (256, Fraction(8, 21))}),                                # Z/8
    (3, 1, 50544, {1: (18468, Fraction(19, 52))}),                           # Z/27
    (2, 2, 47616, {1: (19456, Fraction(38, 93)), 2: (15360, Fraction(10, 31))}),  # Z/32
]


@pytest.mark.parametrize("p,r,cover_size,counts", COUNTS, ids=["Z/8", "Z/27", "Z/32"])
def test_criterion_4_violations_on_every_2x2_matrix(p, r, cover_size, counts):
    entries, cover, violations = _census(p, r)
    assert int(cover.sum()) == cover_size
    assert {i: int(hit.sum()) for i, hit in violations.items()} == {
        i: k for i, (k, _) in counts.items()}

    # the shares in closed form, as rational functions of q = p
    for i, (k, share) in counts.items():
        assert Fraction(k, cover_size) == share
        assert share == (_rate_i1(p, r) if i == 1 else _rate_r2_i2(p))

    # classify agrees on a seeded sample: cover matrices and arbitrary ones
    nr, R = 2 * r, witt_ring(p, 2 * r + 1)
    v = _valuations(p, 2 * r + 1)
    rng = random.Random(p * 100 + r)
    flat = np.flatnonzero(cover)
    picks = [flat[k] for k in rng.sample(range(len(flat)), 60)]
    picks += [rng.randrange(cover.size) for _ in range(30)]
    seen = set()
    for pick in picks:
        idx = np.unravel_index(pick, cover.shape)
        a, b, c, d = (int(e.flat[idx[axis]]) for axis, e in enumerate(entries))
        rep = classify(WittMat.from_ints(R, [[a, b], [c, d]]), r)
        assert rep.in_Xr == bool(cover[idx]), (a, b, c, d)
        assert (rep.val_b, rep.val_c) == (v[a], v[d])
        if not rep.in_Xr:
            continue
        least = int(min(v[a], v[b], v[c], v[d]))
        assert rep.divisors.exponents == (nr - least, least)
        for i, hit in violations.items():
            pred = rep.pred_val_i is not None and i <= rep.pred_val_i
            flagged = pred and i > rep.deepest_closure_i
            assert flagged == bool(hit[idx]), (a, b, c, d, i)
            seen.add(flagged)
    assert seen == {False, True}  # the sample holds violations and non-violations
