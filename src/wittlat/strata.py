"""Stratification of the matrix cover of special lattices.

The cover variety at height r consists of the n x n matrices over
W_{nr+1} whose determinant is p^{nr} times a unit.  Its two-sided orbits
are indexed by dominant exponent vectors summing to nr; the closure
order is dominance.  The subregular family at index i is the closure of
the orbit of diag(p^{nr-i}, p^i, 1, ..., 1), cut out (locally) by
valuation conditions on the corner entry and the corner minor.
"""

import operator
import random
from dataclasses import dataclass

from .errors import NotInCoverError, ParameterMismatchError, ShapeError
from .field import _check_bound
from .matrix import GroupShape, WittMat, _det, _minor, in_group
from .snf import Cochar, divisor_type
from .witt import _draw_below


def regular_cochar(n, r):
    """Exponents of the open (regular) orbit: (nr, 0, ..., 0)."""
    if n < 2 or r < 1:
        raise ValueError("need n >= 2 and r >= 1")
    return Cochar(n, (n * r,) + (0,) * (n - 1))


def subregular_cochar(n, r, i):
    """Exponents (nr-i, i, 0, ..., 0); i = 0 gives the regular vector."""
    nr = n * r
    if not 0 <= i <= nr // 2:
        raise ValueError(f"index i must lie in [0, {nr // 2}]")
    return Cochar(n, (nr - i, i) + (0,) * (n - 2))


def _nr_and_index(A, i):
    """(nr, i) for A over W_{nr+1}, the subregular index i checked against nr."""
    nr = A.ring.N - 1
    if nr % A.n:
        raise ParameterMismatchError("ring length N-1 is not divisible by n")
    if not 0 <= (i := operator.index(i)) <= nr // 2:
        raise ValueError(f"index i must lie in [0, {nr // 2}]")
    return nr, i


def in_cover(A, r):
    """det A = p^{nr} * unit, i.e. the determinant valuation is exactly nr."""
    ring, nr = A.ring, A.n * operator.index(r)
    if ring.N != nr + 1:
        raise ParameterMismatchError(
            f"ring length N={ring.N} but height r={r} requires N={nr + 1}")
    return ring._val(_det(A._raw, ring)) == nr


def _corner_valuations(A):
    """(v_p(corner entry), v_p(corner minor)), read on bare values."""
    if A.n < 2:
        raise ShapeError("corner minor requires n >= 2")
    ring, raw = A.ring, A._raw
    return ring._val(raw[0][0]), ring._val(_det(_minor(raw, 0, 0), ring))


def valuation_predicate(A, i):
    """Corner conditions: v_p(corner minor) >= i and v_p(corner entry) <= nr-i.

    This is the local-chart description of the subregular family; it is
    not equivalent to orbit-closure membership away from the chart (see
    in_orbit_closure).
    """
    nr, i = _nr_and_index(A, i)
    val_b, val_c = _corner_valuations(A)
    return val_c >= i and val_b <= nr - i


def in_orbit_closure(A, i):
    """Closure membership for the index-i subregular orbit, decided by the
    honest two-sided invariant: divisor type r_1 <= nr - i."""
    nr, i = _nr_and_index(A, i)
    div = divisor_type(A)
    if div.total != nr:
        raise NotInCoverError("matrix determinant valuation differs from nr")
    return div.exponents[0] <= nr - i


def dominance_leq(eta, gamma):
    """Partial-sum dominance; requires equal size and equal totals."""
    if eta.n != gamma.n:
        raise ValueError("size mismatch")
    if eta.total != gamma.total:
        raise ValueError("total mismatch")
    acc_e = acc_g = 0
    for e, g in zip(eta.exponents, gamma.exponents):
        acc_e += e
        acc_g += g
        if acc_e > acc_g:
            return False
    return True


def _partitions(total, parts, cap):
    """Weakly decreasing `parts`-tuples over [0, cap] summing to `total`, in
    reverse lexicographic order.  Each step lowers by one the last entry k
    whose tail can still hold the remainder (sum(a[k:]) <= (parts - k) *
    (a[k] - 1)), then refills the tail greedily, largest entries first."""
    if total > parts * cap:
        return
    a = [0] * parts
    k, s, top = 0, total, cap
    while True:
        for j in range(k, parts):
            top = a[j] = min(s, top)
            s -= top
        yield tuple(a)
        s = a[-1]
        for k in range(parts - 2, -1, -1):
            s += a[k]
            top = a[k] - 1
            if s <= (parts - k) * top:
                break
        else:
            return
        a[k] = top
        s -= top
        k += 1


@dataclass(frozen=True)
class StrataPoset:
    n: int
    r: int
    strata: tuple          # Cochar, ordered by stratum index then lex
    hasse: tuple           # pairs (lo, hi) of indices: strata[lo] is covered by strata[hi]

    def to_obj(self):
        return {
            "n": self.n,
            "r": self.r,
            "strata": [{"a": self.n * self.r - c.exponents[0],
                        "exponents": list(c.exponents)} for c in self.strata],
            "hasse": [list(e) for e in self.hasse],
        }


def _ordered_strata(n, r):
    """Dominant vectors summing to nr in stratum order, as _partitions yields them."""
    nr = n * operator.index(r)
    if n < 2 or r < 1:
        raise ValueError("need n >= 2 and r >= 1")
    _check_bound("nr", nr)
    return [Cochar._make(n, exps) for exps in _partitions(nr, n, nr)]


def enumerate_strata(n, r):
    """All dominant exponent vectors summing to nr, with the Hasse covers of
    dominance from Brylawski's rule (Discrete Math. 6, 1973): lam covers mu iff
    mu = lam - e_i + e_j, i < j, and j = i + 1 or lam_i = lam_j + 2.  Partitions
    with at most n parts form an up-set, so these are the covers here too.  As mu
    must decrease weakly, i ends a block of equal parts and j is i + 1 when
    lam_{i+1} <= lam_i - 2, else the start of the block after next if it holds lam_i - 2."""
    strata = _ordered_strata(n, r)
    index = {c.exponents: k for k, c in enumerate(strata)}
    hasse = []
    for lam, hi in index.items():
        for i in range(n - 1):
            top, j = lam[i], i + 1
            while j < n and lam[j] == top - 1:  # a block of top - 1 follows i
                j += 1
            if j < n and lam[j] < top and (j == i + 1 or lam[j] == top - 2):
                mu = list(lam)
                mu[i], mu[j] = top - 1, lam[j] + 1
                hasse.append((index[tuple(mu)], hi))
    return StrataPoset(n=n, r=r, strata=tuple(strata), hasse=tuple(sorted(hasse)))


# -- seeded sampling ------------------------------------------------------------

def _as_rng(seed_or_rng):
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


def _random_raw(ring, n, rng):
    """n x n bare values, drawn row by row as ring.random draws entries."""
    m = ring.m
    vals = _draw_below(rng, ring.pN, n * n * m)
    if m > 1:
        vals = zip(*[iter(vals)] * m)
    return tuple(zip(*[iter(vals)] * n))


def sample_group(ring, n, shape, seed):
    """A pseudorandom element of the requested subgroup shape.

    FULL uses rejection on the unit-determinant condition; the triangular
    and parabolic shapes are built structurally so acceptance is certain.
    """
    rng = _as_rng(seed)
    if shape is GroupShape.FULL:
        for _ in range(10000):
            raw = _random_raw(ring, n, rng)
            if ring._val(_det(raw, ring)) == 0:
                return WittMat._from_raw(ring, raw)
        raise RuntimeError("unit-determinant rejection sampling did not converge")
    if shape in (GroupShape.B, GroupShape.B_MINUS):
        lower = shape is GroupShape.B  # the side whose entries are multiples of p
        A = WittMat._from_raw(ring, tuple([tuple([
            (ring.random_unit if i == j else ring.random_multiple_of_p if (i > j) == lower
             else ring.random)(rng)._v for j in range(n)]) for i in range(n)]))
    elif shape in (GroupShape.P, GroupShape.P_MINUS):
        corner = ring.random_unit(rng)._v
        block = sample_group(ring, n - 1, GroupShape.FULL, rng)._raw if n > 1 else ()
        zero = ring._zero
        raw = [[corner] + [zero] * (n - 1)] + [[zero, *r] for r in block]
        for k in range(1, n):
            edge = ring.random(rng)._v
            if shape is GroupShape.P:
                raw[0][k] = edge
            else:
                raw[k][0] = edge
        A = WittMat._from_raw(ring, tuple(map(tuple, raw)))
    else:
        raise ValueError(f"unknown shape {shape!r}")
    if not in_group(A, shape):
        raise RuntimeError("structural sampler produced an out-of-shape matrix")
    return A


def sample_orbit(ring, gamma, seed):
    """x * diag(p^gamma) * y with fresh FULL samples x, y."""
    rng = _as_rng(seed)
    n = gamma.n
    x = sample_group(ring, n, GroupShape.FULL, rng)
    y = sample_group(ring, n, GroupShape.FULL, rng)
    # diag(p^gamma) * y scales row i of y by p^gamma_i (0 once gamma_i >= N; kept if 1)
    mul, one, scale = ring._mul, ring._one, [ring.p_power(e)._v for e in gamma.exponents]
    return x * WittMat._from_raw(ring, tuple(
        [r if f == one else tuple([mul(f, c) for c in r]) for r, f in zip(y._raw, scale)]))


def sample_cover(ring, n, r, seed):
    """A cover-variety sample: orbit sample over a uniformly chosen stratum."""
    rng = _as_rng(seed)
    if ring.N != n * r + 1:
        raise ParameterMismatchError("ring length must be nr + 1")
    strata = _ordered_strata(n, r)
    gamma = strata[rng.randrange(len(strata))]
    return sample_orbit(ring, gamma, rng)


# -- classification report ----------------------------------------------------------

@dataclass(frozen=True)
class StratumReport:
    """Membership flags and valuations for one matrix.

    The stratum fields are None when the matrix lies outside the cover
    variety (its determinant valuation is not nr).
    """

    in_Xr: bool
    divisors: Cochar
    stratum_index: int | None
    val_b: int
    val_c: int
    pred_val_i: int | None
    deepest_closure_i: int | None

    def to_obj(self):
        return {
            "in_Xr": self.in_Xr,
            "divisors": list(self.divisors.exponents),
            "stratum_index": self.stratum_index,
            "val_b": self.val_b,
            "val_c": self.val_c,
            "pred_val_i": self.pred_val_i,
            "deepest_closure_i": self.deepest_closure_i,
        }


def classify(A, r):
    """Full stratum report for a matrix over W_{nr+1}."""
    n = A.n
    nr = n * operator.index(r)
    if A.ring.N != nr + 1:
        raise ParameterMismatchError(
            f"ring length N={A.ring.N} but height r={r} requires N={nr + 1}")
    div = divisor_type(A)
    member = div.total == nr
    val_b, val_c = _corner_valuations(A)
    a = pred_i = deep_i = None
    if member:
        a = nr - div.exponents[0]
        deep_i = min(a, nr // 2)
        if val_b <= nr:  # the corner conditions only weaken as i falls
            pred_i = min(val_c, nr - val_b, nr // 2)
    return StratumReport(in_Xr=member, divisors=div, stratum_index=a,
                         val_b=val_b, val_c=val_c,
                         pred_val_i=pred_i, deepest_closure_i=deep_i)
