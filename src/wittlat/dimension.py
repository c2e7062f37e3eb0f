"""Orbit, stabilizer and stratum dimension counts, with independent oracles.

Closed-form dimensions are checked against a per-entry linear-algebra
oracle: for gamma = diag(p^{s_1}, ..., p^{s_n}), the stabilizer condition
X gamma = gamma Y decouples into one equation p^{s_j} x = p^{s_i} y per
entry, whose solution space has a computable k-dimension even under the
per-entry constraints (zero, or valuation >= 1) imposed by the subgroup
shapes; dim_report sums these per-entry dimensions grouped by max(i, j).  A
tiny exhaustive census over W_3(F_2) validates the orbit-stabilizer arithmetic
with the library's own matrix products, determinants and divisor types.
divisor_histogram is the one divisor-type counting loop, shared with the
`census` command.
"""

from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from operator import index

from .matrix import GroupShape, WittMat, in_group, p_power_diagonal
from .snf import Cochar, _new, _setattr, divisor_type
from .strata import _height, _index, in_cover, subregular_cochar
from .witt import witt_ring


def regular_lattice_dim(n, r):
    """Dimension of the full lattice variety: (n-1)nr."""
    return (index(n) - 1) * _height(n, r)


def dim_lattice_orbit(gamma, r):
    """Lattice-orbit dimension 2 * sum_{i>=2} (1-i) * c_i for the centered
    exponents c = gamma - r (which sum to zero)."""
    n, nr = gamma.n, _height(gamma.n, r)
    r = nr // n
    if gamma.total != nr:
        raise ValueError("exponents must sum to nr")
    if gamma.exponents[0] > nr:
        raise ValueError("leading exponent exceeds nr")
    centered = [e - r for e in gamma.exponents]
    return -2 * sum(k * centered[k] for k in range(1, n))


def dim_matrix_orbit_closed_form(i, n, r):
    """Closed form n^2(nr+1) - (nr+2i) for the index-i subregular orbit."""
    nr = _height(n, r)
    return n * n * (nr + 1) - (nr + 2 * _index(nr, i))


def _constraint_exponent(shape, i, j, N):
    """Per-entry constraint for a shape: entries live in p^alpha * W_N."""
    if shape is GroupShape.FULL:
        return 0
    if shape is GroupShape.P:
        return N if (j == 0 and i > 0) else 0
    if shape is GroupShape.P_MINUS:
        return N if (i == 0 and j > 0) else 0
    if shape is GroupShape.B:
        return 1 if i > j else 0
    if shape is GroupShape.B_MINUS:
        return 1 if i < j else 0
    raise ValueError(f"unknown shape {shape!r}")


def shape_space_dim(shape, n, N):
    """k-dimension of the matrix space underlying a subgroup shape."""
    return sum(N - _constraint_exponent(shape, i, j, N)
               for i in range(n) for j in range(n))


def stabilizer_dim(gamma, shapes, N):
    """k-dimension of {(X, Y) in S_X x S_Y : X gamma = gamma Y}.

    Entry (i, j) contributes the dimension of the solution space of
    p^{s_j} x = p^{s_i} y with x in p^aX * W_N, y in p^aY * W_N:
    (N - aX) + (N - aY) - N + min(s_j + aX, s_i + aY, N).
    """
    s, n, N = gamma.exponents, gamma.n, index(N)
    if any(e > N for e in s):
        raise ValueError("exponents must lie in [0, N]")
    shape_x, shape_y = shapes
    total = 0
    for i in range(n):
        for j in range(n):
            ax = _constraint_exponent(shape_x, i, j, N)
            ay = _constraint_exponent(shape_y, i, j, N)
            total += (N - ax) + (N - ay) - N + min(s[j] + ax, s[i] + ay, N)
    return total


def dim_matrix_orbit(gamma, N, shapes=(GroupShape.FULL, GroupShape.FULL)):
    """Orbit dimension by orbit-stabilizer: dim S_X + dim S_Y - dim Stab."""
    n, N = gamma.n, index(N)
    sx, sy = shapes
    return (shape_space_dim(sx, n, N) + shape_space_dim(sy, n, N)
            - stabilizer_dim(gamma, shapes, N))


def complete_intersection_check(i, n, r, generator_count=None):
    """Numeric shadow of the complete-intersection property: the ideal
    generator count nr+2i must equal the oracle codimension of the
    index-i subregular orbit closure.  It compares dimension counts only,
    both from the same formulas; it tests no equations or smoothness."""
    gamma = subregular_cochar(n, r, i)
    nr = n * r
    if generator_count is None:
        generator_count = nr + 2 * i
    N = nr + 1
    codim = n * n * N - dim_matrix_orbit(gamma, N)
    return generator_count == codim


@dataclass(frozen=True)
class DimReport:
    gamma: Cochar
    n: int
    r: int
    dim_lattice_orbit: int
    dim_matrix_orbit: int
    stab_dim: int
    codim_in_mat: int
    sources: dict = field(default_factory=dict)

    def to_obj(self):
        return {
            "gamma": self.gamma.to_obj(),
            "n": self.n,
            "r": self.r,
            "dim_lattice_orbit": self.dim_lattice_orbit,
            "dim_matrix_orbit": self.dim_matrix_orbit,
            "stab_dim": self.stab_dim,
            "codim_in_mat": self.codim_in_mat,
            "sources": dict(self.sources),
        }


def dim_report(gamma, r):
    """All dimension quantities for one stratum, from s0 = sum_k s_k and
    s1 = sum_k k s_k.  stab is stabilizer_dim's per-entry count for (FULL,
    FULL), grouped by max(i, j): n^2 N + sum_k (2k+1) s_k = n^2 N + 2 s1 + s0,
    so codim_in_mat is 2 s1 + s0 and the orbit n^2 N minus it.
    dim_lattice_orbit's -2 sum_k k (s_k - r) is r n(n-1) - 2 s1.  The closed
    form is cross-checked on subregular vectors."""
    n = gamma.n
    nr = _height(n, r)
    N = nr + 1
    exps = gamma.exponents
    if exps[0] > N:  # the largest, as exponents decrease
        raise ValueError("exponents must lie in [0, N]")
    s0 = sum(exps)
    # dim_lattice_orbit's checks, in its order, before the closed form is compared
    if s0 != nr:
        raise ValueError("exponents must sum to nr")
    if exps[0] > nr:
        raise ValueError("leading exponent exceeds nr")
    s1 = sum(accumulate(exps[:0:-1]))  # the tail sums s_k + ... + s_{n-1}, k = 1..n-1
    nnN, codim = n * n * N, 2 * s1 + s0
    matrix_source = "linear-oracle"
    if (n == 2 or not exps[2]) and exps[1] <= nr // 2:  # subregular, as exponents decrease
        if dim_matrix_orbit_closed_form(exps[1], n, r) != nnN - codim:
            raise RuntimeError("oracle disagrees with the closed form")
        matrix_source = "closed-form+linear-oracle"
    report = _new(DimReport)  # _record inline: one per stratum
    _setattr(report, "__dict__", {
        "gamma": gamma, "n": n, "r": nr // n,
        "dim_lattice_orbit": nr * (n - 1) - 2 * s1,
        "dim_matrix_orbit": nnN - codim,
        "stab_dim": nnN + codim,
        "codim_in_mat": codim,
        "sources": {
            "dim_lattice_orbit": "closed-form",
            "dim_matrix_orbit": matrix_source,
            "stab_dim": "linear-oracle",
            "codim_in_mat": "linear-oracle",
        },
    })
    return report


# -- divisor-type histograms -------------------------------------------------------

def divisor_histogram(matrix_at, lo, hi, jobs=1):
    """Counter of the divisor types of matrix_at(k) for k in range(lo, hi).

    With jobs > 1 the range is cut into `jobs` contiguous shards counted in
    worker processes, so matrix_at must pickle.  Each matrix depends on its
    index alone, so the histogram does not depend on jobs.
    """
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        bounds = [lo + (hi - lo) * j // jobs for j in range(jobs + 1)]
        counts = Counter()
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for part in pool.map(divisor_histogram, [matrix_at] * jobs, bounds[:-1], bounds[1:]):
                counts.update(part)
        return counts
    return Counter(divisor_type(matrix_at(k)).exponents for k in range(lo, hi))


# -- tiny exhaustive census: 2x2 matrices over W_3(F_2) = Z/8 ------------------------

def _tiny_matrix(k):
    """The k-th of the 4096 2x2 matrices over Z/8, entries the octal digits of k."""
    return WittMat._from_raw(witt_ring(2, 3), ((k >> 9, k >> 6 & 7), (k >> 3 & 7, k & 7)))


@dataclass(frozen=True)
class TinyCensus:
    total_matrices: int
    group_order: int
    histogram: dict           # exponent tuple -> count over all matrices
    stab_pairs: dict          # exponent tuple -> #{(x, y) in G^2 : x g = g y}
    orbit_counts_ok: bool
    cover_size: int           # #{A : v_p(det A) = 2}
    partition_ok: bool

    def to_obj(self):
        return {
            "total_matrices": self.total_matrices,
            "group_order": self.group_order,
            "histogram": [{"exponents": list(k), "count": v}
                          for k, v in sorted(self.histogram.items())],
            "stab_pairs": [{"exponents": list(k), "pairs": v}
                           for k, v in sorted(self.stab_pairs.items())],
            "orbit_counts_ok": self.orbit_counts_ok,
            "cover_size": self.cover_size,
            "partition_ok": self.partition_ok,
        }


def tiny_exhaustive_census(jobs=1):
    """Exhaustive validation at p=2, n=2, r=1 over Z/8.

    Counts all 4096 matrices by divisor type, enumerates the unit group,
    counts stabilizer pairs {(x, y) : x gamma = gamma y} for the two
    height-1 strata, and checks orbit size = |G|^2 / #pairs plus the
    partition of the cover variety.
    """
    ring = witt_ring(2, 3)
    mats = [_tiny_matrix(k) for k in range(8 ** 4)]
    group = [A for A in mats if in_group(A, GroupShape.FULL)]
    g_order = len(group)
    histogram = divisor_histogram(_tiny_matrix, 0, len(mats), jobs)

    stab_pairs = {}
    counts_ok = True
    for exps in ((2, 0), (1, 1)):
        gamma = p_power_diagonal(ring, exps)
        left = Counter(x * gamma for x in group)
        right = Counter(gamma * y for y in group)
        pairs = sum(c * right.get(k, 0) for k, c in left.items())
        stab_pairs[exps] = pairs
        if g_order * g_order % pairs or histogram[exps] != g_order * g_order // pairs:
            counts_ok = False

    cover_size = sum(in_cover(A, 1) for A in mats)
    partition_ok = histogram[(2, 0)] + histogram[(1, 1)] == cover_size

    return TinyCensus(
        total_matrices=len(mats),
        group_order=g_order,
        histogram=dict(histogram),
        stab_pairs=stab_pairs,
        orbit_counts_ok=counts_ok,
        cover_size=cover_size,
        partition_ok=partition_ok,
    )
