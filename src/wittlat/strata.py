"""Stratification of the matrix cover of special lattices.

The cover variety at height r consists of the n x n matrices over
W_{nr+1} whose determinant is p^{nr} times a unit.  Its two-sided orbits
are indexed by dominant exponent vectors summing to nr; the closure
order is dominance.  The subregular family at index i is the closure of
the orbit of diag(p^{nr-i}, p^i, 1, ..., 1), cut out (locally) by
valuation conditions on the corner entry and the corner minor.
"""

import functools
import operator
import random
from dataclasses import dataclass

from .errors import NotInCoverError, ParameterMismatchError, ShapeError
from .field import _check_bound
from .matrix import GroupShape, WittMat, _confined, _det, _minor, in_group
from .snf import Cochar, _cochar, _record, divisor_type


def _height(n, r):
    """nr for size n and height r, read through operator.index: the one check
    that n >= 2 and r >= 1."""
    n, r = operator.index(n), operator.index(r)
    if n < 2 or r < 1:
        raise ValueError("need n >= 2 and r >= 1")
    return n * r


def _index(nr, i):
    """The subregular index i, read through operator.index and checked against nr."""
    if not 0 <= (i := operator.index(i)) <= nr // 2:
        raise ValueError(f"index i must lie in [0, {nr // 2}]")
    return i


def _cover_height(ring, n, r):
    """nr for size n and height r, once ring is checked to be W_{nr+1}."""
    if ring.N != (nr := _height(n, r)) + 1:
        raise ParameterMismatchError(
            f"ring length N={ring.N} but height r={r} requires N={nr + 1}")
    return nr


def regular_cochar(n, r):
    """Exponents of the open (regular) orbit: (nr, 0, ..., 0)."""
    return subregular_cochar(n, r, 0)


def subregular_cochar(n, r, i):
    """Exponents (nr-i, i, 0, ..., 0); i = 0 gives the regular vector."""
    nr = _height(n, r)
    _check_bound("nr", nr)  # before a vector of length n is built
    i = _index(nr, i)
    return Cochar(n, (nr - i, i) + (0,) * (n - 2))


def _nr_and_index(A, i):
    """(nr, i) for A over W_{nr+1}, r = nr / n read through _height and the
    subregular index i checked against nr."""
    nr = A.ring.N - 1
    if nr % A.n:
        raise ParameterMismatchError("ring length N-1 is not divisible by n")
    nr = _height(A.n, nr // A.n)
    return nr, _index(nr, i)


def in_cover(A, r):
    """det A = p^{nr} * unit, i.e. the determinant valuation is exactly nr."""
    ring, nr = A.ring, _cover_height(A.ring, A.n, r)
    return ring._val(_det(A._raw, ring)) == nr


def _corner_valuations(A):
    """(v_p(corner entry), v_p(corner minor)) on bare values, memoised on A (it is
    immutable); n >= 2 is checked by every caller, through _height."""
    corner = A._corner
    if corner is None:
        ring, raw = A.ring, A._raw
        corner = A._corner = (ring._val(raw[0][0]), ring._val(_det(_minor(raw, 0, 0), ring)))
    return corner


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
    (a[k] - 1)), then refills the tail greedily in one list step: q copies of
    a[k], then rem, for q, rem = divmod(remainder, a[k]).  Only the nonzero
    parts are held, so the backward scan starts at the last of them (a zero
    never passes the test), and the zeros are padded on at the yield."""
    if total > parts * cap:
        return
    zeros = [(0,) * j for j in range(parts + 1)]
    a, k, s, top = [], 0, total, cap or 1  # cap = 0 leaves total = 0: no part
    while True:
        q, rem = divmod(s, top)
        a[k:] = [top] * q + [rem] if rem else [top] * q
        yield tuple(a) + zeros[parts - len(a)]
        s = 0
        for k in range(len(a) - 1, -1, -1):
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
    strata: tuple          # Cochar, in reverse-lex order: by stratum index, then lex-larger first
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
    nr = _height(n, r)
    _check_bound("nr", nr)
    return [_cochar(n, exps) for exps in _partitions(nr, n, nr)]


@functools.lru_cache(maxsize=8)
def _cover_strata(n, r):
    """_ordered_strata(n, r) as a tuple, kept for the last few (n, r) that
    sample_cover drew from; enumerate_strata builds afresh on every call."""
    return tuple(_ordered_strata(n, r))


def enumerate_strata(n, r):
    """All dominant exponent vectors summing to nr, with the Hasse covers of
    dominance from Brylawski's rule (Discrete Math. 6, 1973), read from below: lam
    covers mu iff lam = mu + e_i - e_k, i < k, and k = i + 1 or mu_i = mu_k.  Partitions
    with at most n parts form an up-set, so these are the covers here too.  As lam must
    decrease weakly, i starts a block of equal parts of mu and k ends one, so each nonzero
    block gives at most one cover: raise its first part and lower its last (two or more
    parts), or else the next part when that is nonzero and single.  A cover raising an
    earlier part is lex-larger, so earlier in stratum order: the pairs come out sorted."""
    n, r = operator.index(n), operator.index(r)
    strata = _ordered_strata(n, r)
    index = {c.exponents: k for k, c in enumerate(strata)}
    hasse = []
    for mu, lo in index.items():
        i = 0
        while i < n and (v := mu[i]):
            k = i + 1
            while k < n and mu[k] == v:  # the block mu[i:k] of v
                k += 1
            j = k - 1 if k - i > 1 else k  # lower the block's last part, or else the next
            if j < k or j < n and (w := mu[j]) and (j + 1 == n or mu[j + 1] < w):
                lam = list(mu)
                lam[i], lam[j] = v + 1, mu[j] - 1
                hasse.append((lo, index[tuple(lam)]))
            i = k
    return StrataPoset(n=n, r=r, strata=tuple(strata), hasse=tuple(hasse))


# -- seeded sampling ------------------------------------------------------------

def _as_rng(seed_or_rng):
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


def _random_raw(ring, n, rng):
    """n x n bare values, drawn row by row in one batch of ring._random."""
    return tuple(zip(*[iter(ring._random(rng, n * n))] * n))


def sample_group(ring, n, shape, seed):
    """A pseudorandom element of the requested subgroup shape.

    FULL uses rejection on the unit-determinant condition; the triangular
    and parabolic shapes are built structurally so acceptance is certain.
    """
    if n < 1:
        raise ShapeError("matrix must be square and nonempty")
    rng = _as_rng(seed)
    if shape is GroupShape.FULL:
        val = ring._val
        det = ring._matrix_kernels(n)[1] if n <= 4 else functools.partial(_det, ring=ring)
        for _ in range(10000):
            raw = _random_raw(ring, n, rng)
            if val(det(raw)) == 0:
                return WittMat._from_raw(ring, raw)
        raise RuntimeError("unit-determinant rejection sampling did not converge")
    if shape in (GroupShape.B, GroupShape.B_MINUS):
        confined = _confined(shape, n, ring.N)  # e = 1 at each entry it names
        unit, small, draw = ring._random_unit, ring._random_multiple_of_p, ring._random
        A = WittMat._from_raw(ring, tuple([tuple([
            unit(rng) if i == j else small(rng) if (i, j) in confined else draw(rng, 1)[0]
            for j in range(n)]) for i in range(n)]))
    elif shape in (GroupShape.P, GroupShape.P_MINUS):
        corner, zero = ring._random_unit(rng), ring._zero
        block = sample_group(ring, n - 1, GroupShape.FULL, rng)._raw if n > 1 else ()
        edges = ring._random(rng, n - 1)  # row 0 of P, column 0 of P_MINUS
        if shape is GroupShape.P:
            raw = [(corner, *edges)] + [(zero, *r) for r in block]
        else:
            raw = [(corner,) + (zero,) * (n - 1)] + [(e, *r) for e, r in zip(edges, block)]
        A = WittMat._from_raw(ring, tuple(raw))
    else:
        raise ValueError(f"unknown shape {shape!r}")
    if not in_group(A, shape):
        raise RuntimeError("structural sampler produced an out-of-shape matrix")
    return A


def sample_orbit(ring, gamma, seed):
    """x * diag(p^gamma) * y with fresh FULL samples x, y.

    x and y are units, so the divisor type is gamma with each exponent clamped
    to N (exponent N encodes a zero); it is stamped into the `_divisors` memo,
    and divisor_type reads it from there without an elimination."""
    rng = _as_rng(seed)
    n, exps = gamma.n, gamma.exponents
    x = sample_group(ring, n, GroupShape.FULL, rng)
    y = sample_group(ring, n, GroupShape.FULL, rng)
    # diag(p^gamma) * y scales row i of y by p^gamma_i (0 once gamma_i >= N; kept if 1);
    # x and that product are n x n over ring, so the kernel needs no operand check
    mul, one, scale = ring._mul, ring._one, [ring._p_power(e) for e in exps]
    A = WittMat._from_raw(ring, ring._matrix_kernels(n)[0](x._raw, tuple(
        [r if f == one else tuple([mul(f, c) for c in r]) for r, f in zip(y._raw, scale)])))
    A._divisors = _cochar(n, tuple([min(e, ring.N) for e in exps]))
    return A


def sample_cover(ring, n, r, seed):
    """A cover-variety sample: orbit sample over a uniformly chosen stratum."""
    rng = _as_rng(seed)
    _cover_height(ring, n, r)
    strata = _cover_strata(operator.index(n), operator.index(r))
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
    nr = _cover_height(A.ring, A.n, r)
    div = divisor_type(A)
    member = div.total == nr
    val_b, val_c = _corner_valuations(A)
    a = pred_i = deep_i = None
    if member:
        a = nr - div.exponents[0]
        deep_i = min(a, nr // 2)
        if val_b <= nr:  # the corner conditions only weaken as i falls
            pred_i = min(val_c, nr - val_b, nr // 2)
    return _record(StratumReport, in_Xr=member, divisors=div, stratum_index=a,
                   val_b=val_b, val_c=val_c, pred_val_i=pred_i, deepest_closure_i=deep_i)
