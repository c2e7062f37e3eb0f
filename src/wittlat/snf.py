"""Diagonalization over W_N: elementary-divisor types and transforms.

Any square matrix is reduced to diag(p^{r_1}, ..., p^{r_n}) with
r_1 >= ... >= r_n by elementary row/column operations and permutations;
the exponent vector is the complete invariant of the two-sided GL_n
action.  Exponent N encodes a zero diagonal entry.
"""

import itertools
import operator
from dataclasses import dataclass

from .errors import ShapeError
from .matrix import WittMat, _det, _eliminate, p_power_diagonal

_new, _setattr = object.__new__, object.__setattr__


def _record(cls, **fields):
    """The dict-backed frozen dataclass cls from all its fields, unchecked, as pickle
    restores it: only for values the library built itself and knows valid, as with
    WittElem._make.  The fresh keyword dict is installed uncopied as its __dict__."""
    self = _new(cls)
    _setattr(self, "__dict__", fields)
    return self


@dataclass(frozen=True, slots=True)
class Cochar:
    """A dominant exponent vector (r_1 >= ... >= r_n >= 0)."""

    n: int
    exponents: tuple

    def __post_init__(self):
        exps = tuple(map(operator.index, self.exponents))
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "n", operator.index(self.n))
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
        return cls(obj["n"], tuple(obj["exponents"]))


_set_n, _set_exponents = Cochar.n.__set__, Cochar.exponents.__set__  # the two slots' setters


def _cochar(n, exponents):
    """Cochar(n, exponents) for an int n and a dominant tuple of n ints that the library
    built: the one unchecked way to the slotted Cochar, which _record cannot fill."""
    c = _new(Cochar)
    _set_n(c, n)
    _set_exponents(c, exponents)
    return c


@dataclass(frozen=True)
class SnfResult:
    """left * A * right = diag(p^{r_1}, ..., p^{r_n}), exactly."""

    divisors: Cochar
    left: WittMat
    right: WittMat


def snf(A):
    """Full diagonalization with transforms; verifies the reconstruction."""
    ring = A.ring
    exps, _, _, L, R = _eliminate(ring, A._raw, with_transforms=True)
    left = WittMat._from_raw(ring, tuple(map(tuple, L)))
    right = WittMat._from_raw(ring, tuple(map(tuple, R)))
    divisors = _cochar(A.n, tuple(reversed(exps)))  # exps ascend
    matmul, target = ring._matrix_kernels(A.n)[0], p_power_diagonal(ring, divisors.exponents)
    if matmul(matmul(left._raw, A._raw), right._raw) != target._raw:
        raise RuntimeError("diagonalization self-check failed")
    return _record(SnfResult, divisors=divisors, left=left, right=right)


def divisor_type(A):
    """Elementary-divisor exponents, sorted descending (exponent N = zero).

    Computed once per matrix object and memoised on it (A is immutable)."""
    div = A._divisors
    if div is None:
        exps = _eliminate(A.ring, A._raw, with_transforms=False)[0]
        div = A._divisors = _cochar(A.n, tuple(reversed(exps)))
    return div


def minor_valuations(A):
    """Independent oracle: for k = 1..n, the minimal valuation over all
    k x k minors.  Equals min(N, r_n + ... + r_{n-k+1}) for divisor type r.

    Brute force over all minors.  For m > 1 it is limited to n <= 4, where
    every determinant is the generated kernel: larger ones run _eliminate,
    which this oracle must not share.  For m = 1 they are Bareiss over Z.
    """
    n, ring, raw = A.n, A.ring, A._raw
    if n > 4 and ring.m > 1:
        raise ShapeError("minor brute force is limited to n <= 4 for m > 1")
    out = []
    idx = range(n)
    for k in range(1, n + 1):
        best = ring.N
        for rows in itertools.combinations(idx, k):
            for cols in itertools.combinations(idx, k):
                sub = tuple(tuple(raw[i][j] for j in cols) for i in rows)
                v = ring._val(_det(sub, ring))
                if v < best:
                    best = v
        out.append(best)
    return tuple(out)
