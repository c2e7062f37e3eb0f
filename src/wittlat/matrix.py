"""Square matrices over a truncated Witt ring.

Provides exact determinants (for m = 1, fraction-free Bareiss elimination
over Z on the integer lifts; for m > 1, cofactor expansion for n <= 4 and
elimination with minimal-valuation pivots otherwise), minors, the corner
functions (the (0,0) entry and its complementary minor), inverses via the
adjugate, and membership tests for the classical subgroup shapes of GL_n.
"""

import enum

from .errors import NotAUnitError, RingMismatchError, ShapeError
from .witt import WittElem, _int_fields, elem_from_obj, elem_to_obj, witt_ring


class GroupShape(enum.Enum):
    FULL = "full"            # all of GL_n
    P = "p"                  # block upper: first column zero below (0,0)
    P_MINUS = "p_minus"      # block lower: first row zero right of (0,0)
    B = "b"                  # Iwahori: subdiagonal entries divisible by p
    B_MINUS = "b_minus"      # opposite Iwahori: superdiagonal divisible by p


class WittMat:
    """Immutable n x n matrix over one WittRing.

    `_divisors` memoises the matrix's divisor type: `snf.divisor_type` fills
    it on first use, so every later caller shares one elimination.  It is
    not part of the value: `==` and `hash` ignore it.
    """

    __slots__ = ("ring", "n", "rows", "_divisors")

    def __init__(self, ring, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ShapeError("matrix must be square and nonempty")
        for r in rows:
            for e in r:
                if not isinstance(e, WittElem):
                    raise TypeError("entries must be WittElem")
                if e.ring is not ring and e.ring.key != ring.key:
                    raise RingMismatchError("entry ring differs from matrix ring")
        self.ring = ring
        self.n = n
        self.rows = rows
        self._divisors = None

    @classmethod
    def _make(cls, ring, rows):
        self = object.__new__(cls)
        self.ring = ring
        self.n = len(rows)
        self.rows = rows
        self._divisors = None
        return self

    @classmethod
    def from_ints(cls, ring, rows):
        """Convenience constructor from integer entries (canonical map)."""
        return cls._make(ring, tuple(tuple(ring.from_int(c) for c in r) for r in rows))

    @classmethod
    def _from_lifts(cls, ring, rows):
        """m = 1 matrix from integers already reduced mod p^N."""
        make = WittElem._make
        return cls._make(ring, tuple(tuple(make(ring, (c,)) for c in r) for r in rows))

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, WittMat):
            return NotImplemented
        return (self.ring.key == other.ring.key and self.n == other.n
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ring.key, self.rows))

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
        """Product on raw values: each entry is accumulated unreduced over k
        and reduced once (mod p^N for m = 1, by the ring's dot kernel else)."""
        self._check_compatible(other)
        ring = self.ring
        pN = ring.pN
        if ring.m == 1:
            from operator import mul
            a = [[e.coeffs[0] for e in r] for r in self.rows]
            cols = [[e.coeffs[0] for e in c] for c in zip(*other.rows)]
            return WittMat._from_lifts(
                ring, [[sum(map(mul, ra, cb)) % pN for cb in cols] for ra in a])
        a = [[e.coeffs for e in r] for r in self.rows]
        cols = [[e.coeffs for e in c] for c in zip(*other.rows)]
        make, dot = WittElem._make, ring._dot
        return WittMat._make(ring, tuple(
            tuple([make(ring, dot(ra, cb)) for cb in cols]) for ra in a))

    def __add__(self, other):
        self._check_compatible(other)
        return WittMat._make(self.ring, tuple(
            tuple(x + y for x, y in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other):
        self._check_compatible(other)
        return WittMat._make(self.ring, tuple(
            tuple(x - y for x, y in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)))

    def scale(self, c):
        return WittMat._make(self.ring, tuple(
            tuple(c * x for x in r) for r in self.rows))

    def transpose(self):
        return WittMat._make(self.ring, tuple(zip(*self.rows)))

    # -- determinants -----------------------------------------------------------

    def det(self):
        ring = self.ring
        if ring.m == 1:
            lifts = [[e.coeffs[0] for e in r] for r in self.rows]
            return WittElem._make(ring, (_det_int(lifts, ring.pN),))
        if self.n <= 4:
            return _det_cofactor(self.rows, ring)
        return self.det_elimination()

    def det_cofactor(self):
        return _det_cofactor(self.rows, self.ring)

    def det_elimination(self):
        """Determinant by row elimination with minimal-valuation pivots.

        Quotients by a pivot are only defined up to its annihilator, but
        every choice is an elementary row operation, so the determinant is
        unaffected.
        """
        ring = self.ring
        n = self.n
        M = [list(r) for r in self.rows]
        sign = 1
        for k in range(n):
            piv_i, piv_v = -1, ring.N
            for i in range(k, n):
                v = M[i][k].valuation()
                if v < piv_v:
                    piv_i, piv_v = i, v
            if piv_i < 0 or piv_v >= ring.N:
                continue  # zero column: a zero lands on the diagonal
            if piv_i != k:
                M[k], M[piv_i] = M[piv_i], M[k]
                sign = -sign
            divide = ring.divider(M[k][k])
            for i in range(k + 1, n):
                if M[i][k].is_zero():
                    continue
                q = divide(M[i][k])
                M[i] = [x - q * y for x, y in zip(M[i], M[k])]
        acc = M[0][0]
        for k in range(1, n):
            acc = acc * M[k][k]
        return -acc if sign < 0 else acc

    def det_digits(self):
        """Witt digits (d_0, ..., d_{N-1}) of the determinant."""
        return self.det().digits()

    def minor(self, i, j):
        """Determinant of the submatrix with row i and column j removed (0-based)."""
        if self.n < 2:
            raise ShapeError("minor requires n >= 2")
        sub = tuple(tuple(r[:j] + r[j + 1:]) for r in (self.rows[:i] + self.rows[i + 1:]))
        return WittMat._make(self.ring, sub).det()

    def inverse(self):
        """Adjugate times det^{-1}; exact, requires a unit determinant."""
        d = self.det()
        if not d.is_unit():
            raise NotAUnitError("matrix determinant is not a unit")
        dinv = d.inverse()
        n = self.n
        if n == 1:
            return WittMat._make(self.ring, ((dinv,),))
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                c = self.minor(i, j) * dinv
                out[j][i] = -c if (i + j) % 2 else c
        return WittMat._make(self.ring, tuple(tuple(r) for r in out))

    # -- corner functions --------------------------------------------------------

    def corner_entry(self):
        """The (0,0) entry; its digits are the corner-entry digit functions."""
        return self.rows[0][0]

    def corner_minor(self):
        """Determinant of the complementary minor of the (0,0) entry."""
        if self.n < 2:
            raise ShapeError("corner minor requires n >= 2")
        return self.minor(0, 0)


def _det_int(rows, pN):
    """det(rows) mod pN for an integer matrix, by fraction-free Bareiss
    elimination over Z (Math. Comp. 22, 1968).  Exact for any n, since the
    determinant is an integer polynomial in the entries."""
    n = len(rows)
    if n == 2:
        (a, b), (c, d) = rows
        return (a * d - b * c) % pN
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


def _det_cofactor(rows, ring):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    acc = None
    for j in range(n):
        a = rows[0][j]
        if a.is_zero():
            continue
        sub = tuple(r[:j] + r[j + 1:] for r in rows[1:])
        term = a * _det_cofactor(sub, ring)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return ring.zero if acc is None else acc


# -- constructors ---------------------------------------------------------------

def identity(ring, n):
    one, zero = ring.one, ring.zero
    return WittMat._make(ring, tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)))


def zeros(ring, n):
    zero = ring.zero
    return WittMat._make(ring, tuple((zero,) * n for _ in range(n)))


def diagonal(ring, entries):
    zero = ring.zero
    n = len(entries)
    return WittMat._make(ring, tuple(
        tuple(entries[i] if i == j else zero for j in range(n)) for i in range(n)))


def p_power_diagonal(ring, exponents):
    """diag(p^{e_0}, ..., p^{e_{n-1}}); exponents >= N give zero entries."""
    return diagonal(ring, [ring.p_power(e) for e in exponents])


def permutation_matrix(ring, perm):
    """Matrix with 1 at (i, perm[i]); multiplies to permute coordinates."""
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation")
    one, zero = ring.one, ring.zero
    return WittMat._make(ring, tuple(
        tuple(one if j == perm[i] else zero for j in range(n)) for i in range(n)))


def elementary_matrix(ring, n, i, j, c):
    """I + c*E_{ij} with i != j; left multiplication adds c*(row j) to row i."""
    if i == j:
        raise ValueError("elementary matrix requires i != j")
    rows = [list(r) for r in identity(ring, n).rows]
    rows[i][j] = c
    return WittMat._make(ring, tuple(tuple(r) for r in rows))


# -- subgroup membership -----------------------------------------------------------

def in_group(A, shape):
    """Membership test for the subgroup shapes of GL_n over the ring."""
    if not A.det().is_unit():
        return False
    n = A.n
    if shape is GroupShape.FULL:
        return True
    if shape is GroupShape.P:
        return all(A.rows[i][0].is_zero() for i in range(1, n))
    if shape is GroupShape.P_MINUS:
        return all(A.rows[0][j].is_zero() for j in range(1, n))
    if shape is GroupShape.B:
        return all(A.rows[i][j].valuation() >= 1
                   for i in range(n) for j in range(i))
    if shape is GroupShape.B_MINUS:
        return all(A.rows[i][j].valuation() >= 1
                   for i in range(n) for j in range(i + 1, n))
    raise ValueError(f"unknown shape {shape!r}")


# -- JSON codec ----------------------------------------------------------------------

def mat_to_obj(A):
    ring = A.ring
    return {
        "p": ring.p,
        "m": ring.m,
        "N": ring.N,
        "n": A.n,
        "entries": [[elem_to_obj(e) for e in row] for row in A.rows],
    }


def mat_from_obj(obj):
    p, m, N, n = _int_fields(obj, ("p", "m", "N", "n"))
    if n < 1:
        raise ValueError("matrix size n must be >= 1")
    ring = witt_ring(p, N, m)
    entries = obj["entries"]
    if len(entries) != n or any(len(r) != n for r in entries):
        raise ValueError("entries must form an n x n array")
    rows = []
    for row in entries:
        out = []
        for eobj in row:
            if _int_fields(eobj, ("p", "m", "N")) != (p, m, N):
                raise RingMismatchError("entry ring parameters differ from matrix header")
            out.append(elem_from_obj(eobj))
        rows.append(tuple(out))
    return WittMat._make(ring, tuple(rows))
