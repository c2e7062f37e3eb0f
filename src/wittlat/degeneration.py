"""Executable degeneration witnesses between orbit strata.

The basic move replaces a pair of diagonal exponents (r1, rj) by
(r1+b, rj-b).  It is witnessed by an exact 2x2 identity: the deformed
matrix with diagonal (p^{r1}, p^{rj}) and corner entry p^{rj-b} xi(t)
factors as u1 * diag(p^{r1+b}, p^{rj-b}) * u2 * u3 with unipotent
u1, u2, u3, for every nonzero t.  Chains of such moves certify any
dominance relation between exponent vectors of equal total.
"""

import operator
from dataclasses import dataclass

from .matrix import WittMat, identity, p_power_diagonal
from .snf import Cochar, _cochar, _record
from .strata import dominance_leq


def _nonzero_parameter(ring, t):
    t = ring.field.elem(t)
    if not any(t):
        raise ValueError("parameter t must be nonzero")
    return t


def _deformation(ring, exponents, j, b, xi, i):
    raw, r = list(p_power_diagonal(ring, exponents)._raw), exponents[j] - b
    raw[j] = raw[j][:i] + (ring._mul(ring._p_power(r), xi),) + raw[j][i + 1:]  # the one new row
    return WittMat._from_raw(ring, tuple(raw))


def deformation_matrix(ring, exponents, j, b, t, i=0):
    """diag(p^{e_0}, ..., p^{e_{n-1}}) plus the entry p^{e_j - b} xi(t) at (j, i).

    Requires t != 0 and 0 <= b <= e_j.  Dominance of the exponent vector is
    the caller's responsibility.
    """
    t = _nonzero_parameter(ring, t)
    n = len(exponents)
    if not 0 <= i < j < n:
        raise ValueError("need 0 <= i < j < n")
    if not 0 <= b <= exponents[j]:
        raise ValueError("need 0 <= b <= exponents[j]")
    return _deformation(ring, exponents, j, b, ring._teichmuller(t), i)


@dataclass(frozen=True)
class TransferWitness:
    """Verified four-factor decomposition of the 2x2 deformation matrix.

    factors[0] * factors[1] * factors[2] * factors[3] == target, exactly,
    where factors[1] = diag(p^{r1+b}, p^{rj-b}) and the other three are
    unipotent.
    """

    r1: int
    rj: int
    b: int
    t: tuple
    factors: tuple
    target: WittMat


def transfer_witness(ring, r1, rj, b, t):
    """Construct and verify the four-factor identity for given parameters.

    Preconditions: t != 0, 0 <= b <= rj, and r1 + b >= rj so the first
    factor's entry lies in the ring.
    """
    t = _nonzero_parameter(ring, t)
    if r1 < 0 or rj < 0:
        raise ValueError("exponents must be nonnegative")
    if not 0 <= b <= rj:
        raise ValueError("need 0 <= b <= rj")
    if r1 + b - rj < 0:
        raise ValueError("need r1 + b >= rj")
    xi = ring._teichmuller(t)
    return _transfer(ring, r1, rj, b, t, xi, ring._inv(xi))[0]


def _transfer(ring, r1, rj, b, t, xi, xi_inv):
    """transfer_witness on checked parameters, with the bare values of xi(t)
    and xi(t^-1) given.  Also returns, as bare 2x2 blocks for _embed,
    g = factors[2] * factors[3] = [[1, c], [xi, 1 + c xi]] for
    c = (p^b - 1) xi(t^-1), and g^-1 = [[1 + c xi, -c], [-xi, 1]], its
    adjugate, as det g = 1.  The check products run on the 2 x 2 kernel."""
    mul, sub, one, zero = ring._mul, ring._sub, ring._one, ring._zero
    matmul = ring._matrix_kernels(2)[0]
    c = mul(sub(ring._p_power(b), one), xi_inv)
    f0 = ((one, sub(zero, mul(ring._p_power(r1 + b - rj), c))), (zero, one))
    f1 = p_power_diagonal(ring, (r1 + b, rj - b))
    f2, f3 = ((one, zero), (xi, one)), ((one, c), (zero, one))
    target = _deformation(ring, (r1, rj), 1, b, xi, 0)
    g = matmul(f2, f3)
    if matmul(matmul(f0, f1._raw), g) != target._raw:
        raise RuntimeError("four-factor product identity failed")
    g_inv = ((g[1][1], sub(zero, c)), (sub(zero, xi), one))
    factors = (WittMat._from_raw(ring, f0), f1, WittMat._from_raw(ring, f2),
               WittMat._from_raw(ring, f3))
    return _record(TransferWitness, r1=r1, rj=rj, b=b, t=t, factors=factors,
                   target=target), g, g_inv


def _embed2(eye, block, i, j):
    """The rows `eye` of the identity with a 2x2 block of bare values in rows
    and columns i, j; only rows i and j are copied."""
    raw = list(eye)
    ri, rj = list(raw[i]), list(raw[j])
    (ri[i], ri[j]), (rj[i], rj[j]) = block
    raw[i], raw[j] = tuple(ri), tuple(rj)
    return tuple(raw)


def embed_witness(w, n, j, ambient, i=0):
    """Place the 2x2 witness into slots (i, j) of an n x n ambient diagonal.

    Returns (x, eta_prime, y) with x * eta_prime * y^{-1} equal to the
    embedded deformation matrix; x and y are invertible, with g^-1 from _transfer.
    """
    ring = w.target.ring
    ambient, j, i = tuple(map(operator.index, ambient)), operator.index(j), operator.index(i)
    if len(ambient) != n:
        raise ValueError("ambient exponent vector must have length n")
    if not 0 <= i < j < n:
        raise ValueError("need 0 <= i < j < n")
    if ambient[i] != w.r1 or ambient[j] != w.rj:
        raise ValueError("ambient slots must carry the witness exponents")
    xi = ring._teichmuller(w.t)
    _, g, g_inv = _transfer(ring, w.r1, w.rj, w.b, w.t, xi, ring._inv(xi))
    return _embed(w, n, j, ambient, i, _deformation(ring, ambient, j, w.b, xi, i), g, g_inv)


def _embed(w, n, j, ambient, i, eta, g, g_inv):
    """embed_witness on checked slots, with the embedded deformation eta,
    g = factors[2] * factors[3] and g^-1 given as bare 2x2 blocks.  The check
    products run on the n x n kernel."""
    ring = w.target.ring
    matmul = ring._matrix_kernels(n)[0]
    upper = list(ambient)
    upper[i], upper[j] = w.r1 + w.b, w.rj - w.b
    eye = identity(ring, n)._raw
    x = _embed2(eye, w.factors[0]._raw, i, j)
    y_inv, y = _embed2(eye, g, i, j), _embed2(eye, g_inv, i, j)
    eta_prime = p_power_diagonal(ring, upper)
    if matmul(matmul(x, eta_prime._raw), y_inv) != eta._raw:
        raise RuntimeError("embedded witness product check failed")
    if matmul(y, y_inv) != eye:
        raise RuntimeError("embedded witness inverse check failed")
    return WittMat._from_raw(ring, x), eta_prime, WittMat._from_raw(ring, y)


@dataclass(frozen=True)
class ChainStep:
    """One single-unit transfer: `lower` lies in the closure of the orbit
    of `upper`, witnessed at the chosen parameter t."""

    upper: Cochar
    lower: Cochar
    i: int
    j: int
    b: int
    witness: TransferWitness
    x: WittMat
    eta_prime: WittMat
    y: WittMat
    deformed: WittMat


def _transfer_slots(cur, tgt):
    d = next(k for k in range(len(cur)) if cur[k] != tgt[k])
    i_star = d
    while i_star + 1 < len(cur) and cur[i_star + 1] == cur[d]:
        i_star += 1
    j = next(k for k in range(len(cur)) if cur[k] < tgt[k])
    return i_star, j


def degeneration_chain(ring, src, dst, t=None):
    """Single-unit transfer steps taking `dst` down to `src`.

    Requires dominance_leq(src, dst) and equal totals; the empty list is
    returned iff src == dst.  Every step carries a verified embedded
    witness at parameter t (default 1).  xi(t) is lifted and inverted, as
    xi(t^-1) = xi(t)^-1, once per chain; each step's deformed matrix is the
    eta its embedding checks, and its lower Cochar is the next step's upper one.
    """
    t = ring.field.one if t is None else _nonzero_parameter(ring, t)
    if not dominance_leq(src, dst):
        raise ValueError("source must be dominated by destination")
    if ring.N < dst.total + 1:
        raise ValueError("ring length must exceed the exponent total")
    xi = ring._teichmuller(t)
    xi_inv = ring._inv(xi)
    n = src.n
    steps = []
    upper = _cochar(n, tuple(dst.exponents))
    tgt = src.exponents
    while upper.exponents != tgt:
        i, j = _transfer_slots(upper.exponents, tgt)
        lower = list(upper.exponents)
        lower[i] -= 1
        lower[j] += 1
        lower = tuple(lower)
        # upper[i] > upper[j], so the slots meet the preconditions of
        # transfer_witness and embed_witness
        w, g, g_inv = _transfer(ring, lower[i], lower[j], 1, t, xi, xi_inv)
        deformed = _deformation(ring, lower, j, 1, xi, i)
        x, eta_prime, y = _embed(w, n, j, lower, i, deformed, g, g_inv)
        steps.append(_record(ChainStep, upper=upper, lower=_cochar(n, lower),
                             i=i, j=j, b=1, witness=w, x=x, eta_prime=eta_prime, y=y,
                             deformed=deformed))
        upper = steps[-1].lower
    return steps
