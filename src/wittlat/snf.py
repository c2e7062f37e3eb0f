"""Diagonalization over W_N: elementary-divisor types and transforms.

Any square matrix is reduced to diag(p^{r_1}, ..., p^{r_n}) with
r_1 >= ... >= r_n by elementary row/column operations and permutations;
the exponent vector is the complete invariant of the two-sided GL_n
action.  Exponent N encodes a zero diagonal entry.
"""

import itertools
from dataclasses import dataclass

from .errors import ShapeError
from .matrix import WittMat, p_power_diagonal


@dataclass(frozen=True)
class Cochar:
    """A dominant exponent vector (r_1 >= ... >= r_n >= 0)."""

    n: int
    exponents: tuple

    def __post_init__(self):
        exps = tuple(int(e) for e in self.exponents)
        object.__setattr__(self, "exponents", exps)
        if len(exps) != self.n:
            raise ValueError("exponent count must equal n")
        if any(e < 0 for e in exps):
            raise ValueError("exponents must be nonnegative")
        if any(exps[i] < exps[i + 1] for i in range(self.n - 1)):
            raise ValueError("exponents must be weakly decreasing")

    def __iter__(self):
        return iter(self.exponents)

    def __getitem__(self, k):
        return self.exponents[k]

    def __len__(self):
        return self.n

    @property
    def total(self):
        return sum(self.exponents)

    def to_obj(self):
        return {"n": self.n, "exponents": list(self.exponents)}

    @classmethod
    def from_obj(cls, obj):
        return cls(int(obj["n"]), tuple(int(e) for e in obj["exponents"]))


@dataclass(frozen=True)
class SnfResult:
    """left * A * right = diag(p^{r_1}, ..., p^{r_n}), exactly."""

    divisors: Cochar
    left: WittMat
    right: WittMat


def _find_pivot(M, k, n, N):
    """Minimal-valuation entry of the active block; ties prefer the
    smallest column index, then the largest row index."""
    bv, bj, bi = N, n, -1
    for j in range(k, n):
        for i in range(k, n):
            v = M[i][j].valuation()
            if v >= N:
                continue
            if v < bv or (v == bv and (j < bj or (j == bj and i > bi))):
                bv, bj, bi = v, j, i
    if bi < 0:
        return None
    return bv, bi, bj


def _eliminate(A, with_transforms):
    ring = A.ring
    n, N = A.n, ring.N
    M = [list(r) for r in A.rows]
    if with_transforms:
        one, zero = ring.one, ring.zero
        L = [[one if i == j else zero for j in range(n)] for i in range(n)]
        R = [[one if i == j else zero for j in range(n)] for i in range(n)]
    exps, dividers = [], []
    for k in range(n):
        found = _find_pivot(M, k, n, N)
        if found is None:
            exps.extend([N] * (n - k))
            break
        v, pi, pj = found
        if pi != k:
            M[k], M[pi] = M[pi], M[k]
            if with_transforms:
                L[k], L[pi] = L[pi], L[k]
        if pj != k:
            for row in M:
                row[k], row[pj] = row[pj], row[k]
            if with_transforms:
                for row in R:
                    row[k], row[pj] = row[pj], row[k]
        exps.append(v)
        # kept for the unit normalization (M[k][k] is final from here on);
        # without transforms the last pivot, which clears nothing, needs none
        divide = ring.divider(M[k][k]) if with_transforms or k + 1 < n else None
        dividers.append(divide)
        for i in range(k + 1, n):
            if M[i][k].is_zero():
                continue
            q = divide(M[i][k])
            M[i] = [x - q * y for x, y in zip(M[i], M[k])]
            if with_transforms:
                L[i] = [x - q * y for x, y in zip(L[i], L[k])]
        for j in range(k + 1, n):
            if M[k][j].is_zero():
                continue
            q = divide(M[k][j])
            for row in M:
                row[j] = row[j] - q * row[k]
            if with_transforms:
                for row in R:
                    row[j] = row[j] - q * row[k]
    if not with_transforms:
        return exps, None, None
    # normalize units into the right transform: diag entry p^v * u -> p^v
    for k, divide in enumerate(dividers):
        w = divide(ring.p_power(exps[k]))  # inverse of the unit part
        if w != ring.one:
            for row in M:
                row[k] = row[k] * w
            for row in R:
                row[k] = row[k] * w
    # exponents came out ascending; reverse rows and columns to sort descending
    M.reverse()
    L.reverse()
    for row in M:
        row.reverse()
    for row in R:
        row.reverse()
    exps.reverse()
    return exps, L, R


def snf(A):
    """Full diagonalization with transforms; verifies the reconstruction."""
    ring = A.ring
    exps, L, R = _eliminate(A, with_transforms=True)
    left = WittMat._make(ring, tuple(tuple(r) for r in L))
    right = WittMat._make(ring, tuple(tuple(r) for r in R))
    divisors = Cochar(A.n, tuple(exps))
    target = p_power_diagonal(ring, divisors.exponents)
    if left * A * right != target:
        raise RuntimeError("diagonalization self-check failed")
    return SnfResult(divisors=divisors, left=left, right=right)


def divisor_type(A):
    """Elementary-divisor exponents, sorted descending (exponent N = zero)."""
    exps, _, _ = _eliminate(A, with_transforms=False)
    return Cochar(A.n, tuple(sorted(exps, reverse=True)))


def minor_valuations(A):
    """Independent oracle: for k = 1..n, the minimal valuation over all
    k x k minors.  Equals min(N, r_n + ... + r_{n-k+1}) for divisor type r.

    Brute force over all minors, so limited to n <= 4.
    """
    n = A.n
    if n > 4:
        raise ShapeError("minor brute force is limited to n <= 4")
    N = A.ring.N
    out = []
    idx = range(n)
    for k in range(1, n + 1):
        best = N
        for rows in itertools.combinations(idx, k):
            for cols in itertools.combinations(idx, k):
                sub = tuple(tuple(A.rows[i][j] for j in cols) for i in rows)
                v = WittMat._make(A.ring, sub).det().valuation()
                if v < best:
                    best = v
        out.append(best)
    return tuple(out)
