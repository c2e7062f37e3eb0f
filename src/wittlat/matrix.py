"""Square matrices over a truncated Witt ring.

A matrix stores bare values (ints for m = 1, coefficient tuples for m > 1);
WittElems are built where a public reader returns them, and as the working
matrix M of _eliminate, which is not on bare values yet.  Products and the
n <= 4 determinants are the ring's kernels generated per (m, n) in field.py.
Provides the one full-pivot elimination behind both the elementary-divisor
type (snf.py) and the m > 1, n > 4 determinant (for m = 1, fraction-free
Bareiss elimination over Z on the integer lifts), minors, the corner
functions (the (0,0) entry and its complementary minor), inverses via the
adjugate, and membership in the subgroup shapes of GL_n, read from one per-entry table.
"""

import enum
import functools
import operator
from types import MappingProxyType

from .errors import NotAUnitError, RingMismatchError, ShapeError
from .witt import WittElem, _int_fields, _value_to_obj, elem_from_obj, witt_ring


class GroupShape(enum.Enum):
    FULL = "full"            # all of GL_n
    P = "p"                  # block upper: first column zero below (0,0)
    P_MINUS = "p_minus"      # block lower: first row zero right of (0,0)
    B = "b"                  # Iwahori: subdiagonal entries divisible by p
    B_MINUS = "b_minus"      # opposite Iwahori: superdiagonal divisible by p


_ENTRY_RULES = {  # entry (i, j) of a shape over W_N lies in p^e W_N for e = rule(i, j, N)
    GroupShape.FULL: lambda i, j, N: 0,
    GroupShape.P: lambda i, j, N: N if j == 0 < i else 0,
    GroupShape.P_MINUS: lambda i, j, N: N if i == 0 < j else 0,
    GroupShape.B: lambda i, j, N: 1 if j < i else 0,
    GroupShape.B_MINUS: lambda i, j, N: 1 if i < j else 0,
}


def _confined(shape, n, N):
    """The entries of an n x n matrix of `shape` over W_N with e > 0 (e = N: zero), as a
    read-only map (i, j) -> e in row-major order, cached; ValueError for a non-GroupShape."""
    if not isinstance(shape, GroupShape):
        raise ValueError(f"unknown shape {shape!r}")
    return _confined_entries(shape, n, N)


@functools.lru_cache(maxsize=64)
def _confined_entries(shape, n, N):
    rule, idx = _ENTRY_RULES[shape], range(n)
    return MappingProxyType({(i, j): e for i in idx for j in idx if (e := rule(i, j, N))})


class WittMat:
    """Immutable n x n matrix over one WittRing.

    Its value is `_raw`, row tuples of bare values reduced mod p^N (ints for
    m = 1, coefficient tuples for m > 1), its only stored value; `rows`,
    the WittElem view, is built on each read.  The memos `_divisors` (divisor
    type) and `_corner` (corner valuations) are filled on first use by
    `snf.divisor_type` and `strata._corner_valuations`, so later callers share
    one elimination and one corner-minor det; `strata.sample_orbit` fills
    `_divisors` with the type it was built with.  `==` and `hash` read `_raw` alone.
    """

    __slots__ = ("ring", "n", "_raw", "_divisors", "_corner")

    def __init__(self, ring, rows):
        rows = _square(rows)
        self.ring, self.n, self._divisors, self._corner = ring, len(rows), None, None
        self._raw = tuple([_values(ring, r) for r in rows])

    @classmethod
    def _from_raw(cls, ring, raw):
        """Matrix from row tuples of bare values already reduced mod p^N."""
        self = object.__new__(cls)
        self.ring, self.n, self._raw = ring, len(raw), raw
        self._divisors = self._corner = None
        return self

    @classmethod
    def from_ints(cls, ring, rows):
        """Convenience constructor from integer entries (canonical map)."""
        pN, index = ring.pN, operator.index
        raw = _square([[index(c) % pN for c in r] for r in rows])
        if ring.m > 1:
            pad = (0,) * (ring.m - 1)
            raw = tuple(tuple([(c,) + pad for c in r]) for r in raw)
        return cls._from_raw(ring, raw)

    @property
    def rows(self):
        ring, make = self.ring, WittElem._make
        return tuple([tuple([make(ring, c) for c in r]) for r in self._raw])

    def __getitem__(self, ij):
        i, j = ij
        return WittElem._make(self.ring, self._raw[i][j])

    def __eq__(self, other):
        if not isinstance(other, WittMat):
            return NotImplemented
        return (self.ring.key == other.ring.key and self.n == other.n
                and self._raw == other._raw)

    def __hash__(self):
        return hash((self.ring.key, self._raw))

    def __repr__(self):
        body = "; ".join(" ".join(repr(e) for e in r) for r in self.rows)
        return f"WittMat[{body}]"

    def _check_compatible(self, other):
        if not isinstance(other, WittMat):
            raise TypeError("expected a WittMat")
        if self.n != other.n:
            raise ShapeError(f"size mismatch: {self.n} vs {other.n}")
        if self.ring is not other.ring and self.ring.key != other.ring.key:
            raise RingMismatchError("matrices live over different rings")

    # -- arithmetic -----------------------------------------------------------

    def __mul__(self, other):
        """Product on raw values by the ring's generated n x n kernel: each
        entry is accumulated unreduced over k and reduced once."""
        self._check_compatible(other)
        ring = self.ring
        return WittMat._from_raw(ring, ring._matrix_kernels(self.n)[0](self._raw, other._raw))

    def __add__(self, other):
        return self._entrywise(other, self.ring._add)

    def __sub__(self, other):
        return self._entrywise(other, self.ring._sub)

    def _entrywise(self, other, op):
        self._check_compatible(other)
        return WittMat._from_raw(self.ring, tuple(
            [tuple(map(op, ra, rb)) for ra, rb in zip(self._raw, other._raw)]))

    def transpose(self):
        return WittMat._from_raw(self.ring, tuple(zip(*self._raw)))

    # -- determinants -----------------------------------------------------------

    def det(self):
        return WittElem._make(self.ring, _det(self._raw, self.ring))

    def det_digits(self):
        """Witt digits (d_0, ..., d_{N-1}) of the determinant."""
        return self.det().digits()

    def minor(self, i, j):
        """Determinant of the submatrix with row i and column j removed (0-based)."""
        if self.n < 2:
            raise ShapeError("minor requires n >= 2")
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ValueError(f"minor requires indices in [0, {self.n})")
        return WittElem._make(self.ring, _det(_minor(self._raw, i, j), self.ring))

    def inverse(self):
        """Adjugate times det^{-1}; exact, requires a unit determinant."""
        ring, raw, n = self.ring, self._raw, self.n
        d = _det(raw, ring)
        if ring._val(d):
            raise NotAUnitError("matrix determinant is not a unit")
        dinv = ring._inv(d)
        if n == 1:
            return WittMat._from_raw(ring, ((dinv,),))
        mul, neg = ring._mul, ring._sub(ring._zero, dinv)
        return WittMat._from_raw(ring, tuple(
            tuple([mul(_det(_minor(raw, i, j), ring), neg if (i + j) % 2 else dinv)
                   for i in range(n)]) for j in range(n)))

    # -- corner functions --------------------------------------------------------

    def corner_entry(self):
        """The (0,0) entry; its digits are the corner-entry digit functions."""
        return self[0, 0]

    def corner_minor(self):
        """Determinant of the complementary minor of the (0,0) entry."""
        return self.minor(0, 0)


def _square(rows):
    """`rows` as a tuple of row tuples, checked square and nonempty."""
    rows = tuple([tuple(r) for r in rows])
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ShapeError("matrix must be square and nonempty")
    return rows


def _values(ring, elems):
    """The bare values of `elems`, checked to be WittElems of `ring`: the one
    way in from WittElems for every matrix constructor."""
    out = []
    for e in elems:
        if not isinstance(e, WittElem):
            raise TypeError("entries must be WittElem")
        if e.ring is not ring and e.ring.key != ring.key:
            raise RingMismatchError("entry ring differs from matrix ring")
        out.append(e._v)
    return tuple(out)


def _minor(raw, i, j):
    """The rows of bare values of `raw` without row i and column j."""
    return tuple([r[:j] + r[j + 1:] for r in raw[:i] + raw[i + 1:]])


def _det_int(rows, pN):
    """det(rows) mod pN for an integer matrix, by fraction-free Bareiss
    elimination over Z (Math. Comp. 22, 1968).  Exact for any n, since the
    determinant is an integer polynomial in the entries."""
    n = len(rows)
    M = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        if not M[k][k]:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return 0  # zero column below the diagonal: det is 0 over Z
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        rk = M[k]
        piv = rk[k]
        for ri in M[k + 1:]:
            a = ri[k]
            for j in range(k + 1, n):
                ri[j] = (piv * ri[j] - a * rk[j]) // prev
        prev = piv
    return sign * M[n - 1][n - 1] % pN


def _det(rows, ring):
    """det, as a bare value, of rows of bare values: the ring's kernel for
    n <= 4; above, _det_int for m = 1 and, for m > 1, the signed product of
    the diagonal of the triangular M that _eliminate leaves (a zero lands
    there when a pivot search finds nothing).  Its quotients are defined only
    up to a pivot's annihilator, but every choice is a row operation of det 1."""
    n = len(rows)
    if n <= 4:
        return ring._matrix_kernels(n)[1](rows)
    if ring.m == 1:
        return _det_int(rows, ring.pN)
    _, sign, M, _, _ = _eliminate(ring, rows, with_transforms=False)
    d = functools.reduce(ring._mul, [M[k][k]._v for k in range(n)])
    return d if sign > 0 else ring._sub(ring._zero, d)


# -- elimination -------------------------------------------------------------------

def _find_pivot(M, k, n, N, lo):
    """Minimal-valuation entry of the active block, scanned down each column in
    turn: ties go to the first column met, then to the last row met in it.  No
    entry lies below lo, the last pivot's valuation (0 at k = 0), as each is
    x - q*y with v(x), v(y) >= lo and v(q) >= 0; so the scan ends after the
    first whole column holding valuation lo, since later columns could only tie."""
    bv, bj, bi = N, n, -1
    for j in range(k, n):
        for i in range(k, n):
            v = M[i][j].valuation()
            if v >= N:
                continue
            if v < bv or (v == bv and j == bj):
                bv, bj, bi = v, j, i
        if bv == lo:
            break
    if bi < 0:
        return None
    return bv, bi, bj


def _eliminate(ring, raw, with_transforms):
    """Full-pivot elimination of the matrix A whose rows of bare values are
    `raw` (pivots by _find_pivot) to an upper-triangular M of WittElems by
    row operations and swaps; the column operations that clear each pivot's
    row act on R alone, as nothing reads M there.
    Clearing row i below pivot k zeroes M[i][k] (q * M[k][k] is M[i][k]
    exactly) and rewrites only the columns right of k: those left of k hold
    zero in both rows.  Pivot valuations never decrease (see _find_pivot).
    One ring._divider per pivot gives the quotients of both M and the
    transforms; L and R updates are fused ring._submul calls that skip entries
    whose multiplicand is zero.

    Returns (exps, sign, M, L, R).  exps are the pivot valuations in pivot
    order, padded with N once no pivot is left; sign is that of the swaps, so
    det A = sign * prod_k M[k][k].  With transforms, L and R hold bare values
    (see WittRing), the pivots' unit parts are moved into R and the order of
    L's rows and R's columns is reversed, so L * A * R = diag(p^e) for
    e = exps reversed (descending); without, L and R are None.
    """
    n, N, zero, make = len(raw), ring.N, ring.zero, WittElem._make
    M = [[make(ring, c) for c in r] for r in raw]
    L = R = None
    if with_transforms:
        submul, mul, bzero, eye = ring._submul, ring._mul, ring._zero, identity(ring, n)._raw
        L, R = [list(r) for r in eye], [list(r) for r in eye]
    exps, sign = [], 1
    for k in range(n):
        found = _find_pivot(M, k, n, N, exps[-1] if exps else 0)
        if found is None:
            exps.extend([N] * (n - k))  # the active block is zero
            break
        v, pi, pj = found
        if pi != k:
            sign = -sign
            M[k], M[pi] = M[pi], M[k]
            if with_transforms:
                L[k], L[pi] = L[pi], L[k]
        if pj != k:
            sign = -sign
            for row in M:
                row[k], row[pj] = row[pj], row[k]
            if with_transforms:
                for row in R:
                    row[k], row[pj] = row[pj], row[k]
        exps.append(v)
        if k + 1 == n and not with_transforms:
            break  # the last pivot clears nothing
        Mk = M[k]
        divide, w = ring._divider(Mk[k]._v)  # w inverts the pivot's unit part
        for i in range(k + 1, n):
            if M[i][k].is_zero():
                continue
            q = divide(M[i][k]._v)
            qe = make(ring, q)
            M[i][k] = zero
            M[i][k + 1:] = [x - qe * y for x, y in zip(M[i][k + 1:], Mk[k + 1:])]
            if with_transforms:
                L[i] = [x if y == bzero else submul(x, q, y) for x, y in zip(L[i], L[k])]
        if with_transforms:
            # R's column k is final once it has cleared the pivot's row: later
            # pivots neither read nor write it, so its unit is normalized here
            live = [row for row in R if row[k] != bzero]
            for j in range(k + 1, n):
                if Mk[j].is_zero():
                    continue
                q = divide(Mk[j]._v)
                for row in live:
                    row[j] = submul(row[j], q, row[k])
            if w != ring._one:  # diag entry p^v * u -> p^v
                for row in live:
                    row[k] = mul(row[k], w)
    if with_transforms:
        # exponents came out ascending; reverse to sort them descending
        L.reverse()
        for row in R:
            row.reverse()
    return exps, sign, M, L, R


# -- constructors ---------------------------------------------------------------

def identity(ring, n):
    return p_power_diagonal(ring, (0,) * n)


def zeros(ring, n):
    return p_power_diagonal(ring, (ring.N,) * n)


def diagonal(ring, entries):
    return _diagonal(ring, _values(ring, entries))


def p_power_diagonal(ring, exponents):
    """diag(p^{e_0}, ..., p^{e_{n-1}}); exponents >= N give zero entries.

    One shared matrix per ring and exponent tuple, memoised in ring._diagonals
    when no exponent exceeds N: at most (N + 1)^n matrices per size n."""
    key = tuple(map(operator.index, exponents))
    A = ring._diagonals.get(key)
    if A is None:
        A = _diagonal(ring, [ring._p_power(e) for e in key])
        if max(key) <= ring.N:
            ring._diagonals[key] = A
    return A


def _diagonal(ring, vals):
    """The diagonal matrix of a nonempty list of bare values."""
    n, zero = len(vals), ring._zero
    if not n:
        raise ShapeError("matrix must be square and nonempty")
    return WittMat._from_raw(ring, tuple(
        [tuple([zero] * i + [v] + [zero] * (n - 1 - i)) for i, v in enumerate(vals)]))


def permutation_matrix(ring, perm):
    """Matrix with 1 at (i, perm[i]); multiplies to permute coordinates."""
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation")
    raw = identity(ring, n)._raw
    return WittMat._from_raw(ring, tuple(raw[j] for j in perm))


def elementary_matrix(ring, n, i, j, c):
    """I + c*E_{ij}, 0 <= i != j < n; left multiplication adds c*(row j) to row i."""
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise ValueError(f"elementary matrix requires distinct indices in [0, {n})")
    raw = [list(r) for r in identity(ring, n)._raw]
    raw[i][j], = _values(ring, (c,))
    return WittMat._from_raw(ring, tuple(map(tuple, raw)))


# -- subgroup membership -----------------------------------------------------------

def in_group(A, shape):
    """Membership in a shape: v(A[i][j]) >= e at each (i, j) -> e of _confined, and a unit det."""
    ring, raw, val = A.ring, A._raw, A.ring._val
    for (i, j), e in _confined(shape, A.n, ring.N).items():
        if val(raw[i][j]) < e:
            return False
    return not val(_det(raw, ring))


# -- JSON codec ----------------------------------------------------------------------

def mat_to_obj(A):
    ring = A.ring
    return {
        "p": ring.p,
        "m": ring.m,
        "N": ring.N,
        "n": A.n,
        "entries": [[_value_to_obj(ring, v) for v in row] for row in A._raw],
    }


def mat_from_obj(obj):
    p, m, N, n = _int_fields(obj, ("p", "m", "N", "n"))
    if n < 1:
        raise ValueError("matrix size n must be >= 1")
    ring = witt_ring(p, N, m)
    entries = obj["entries"]
    if len(entries) != n or any(len(r) != n for r in entries):
        raise ValueError("entries must form an n x n array")

    def entry(eobj):
        if _int_fields(eobj, ("p", "m", "N")) != (p, m, N):
            raise RingMismatchError("entry ring parameters differ from matrix header")
        return elem_from_obj(eobj)
    return WittMat(ring, [map(entry, row) for row in entries])
