"""Property tests on hypothesis over W_N(F_{p^m}), p in {2, 3, 5}, m <= 3, N <= 6.

Matrices of size n <= 5 are drawn uniform, with a zero row, with a row times
p^k, as a permuted p-power diagonal, or as sample_orbit samples.  The runs are
derandomized and keep no example database, so every run draws the same
examples.  A failing example is shrunk, and each of its matrices is printed
through note() as one line of JSON, the object that mat_from_obj reads and
`wittlat classify --input` replays (over W_{nr+1}).
"""

import json

from hypothesis import HealthCheck, assume, given, note, settings
from hypothesis import strategies as st

from wittlat.matrix import (GroupShape, WittMat, _eliminate, in_group, mat_to_obj,
                            p_power_diagonal)
from wittlat.snf import Cochar, divisor_type, minor_valuations, snf
from wittlat.strata import sample_group, sample_orbit
from wittlat.witt import WittElem, witt_ring

from test_matrix import _eliminate_with_column_ops

_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100,
                     suppress_health_check=[HealthCheck.too_slow])

rings = st.builds(witt_ring, st.sampled_from((2, 3, 5)), st.integers(1, 6), st.integers(1, 3))
seeds = st.integers(0, 2 ** 32 - 1)
KINDS = ("uniform", "zero_row", "row_times_p", "diagonal", "orbit")


@st.composite
def square(draw, ring, n):
    """One n x n matrix over ring, of a drawn kind."""
    kind, N = draw(st.sampled_from(KINDS)), ring.N
    if kind in ("orbit", "diagonal"):
        exps = draw(st.lists(st.integers(0, N), min_size=n, max_size=n))
        if kind == "orbit":
            return sample_orbit(ring, Cochar(n, tuple(sorted(exps, reverse=True))), draw(seeds))
        perm = draw(st.permutations(range(n)))
        return WittMat(ring, [[ring.p_power(exps[i]) if j == perm[i] else ring.zero
                               for j in range(n)] for i in range(n)])
    coeffs = st.tuples(*[st.integers(0, ring.pN - 1)] * ring.m)
    rows = [[WittElem(ring, c) for c in draw(st.lists(coeffs, min_size=n, max_size=n))]
            for _ in range(n)]
    if kind == "zero_row":
        rows[draw(st.integers(0, n - 1))] = [ring.zero] * n
    elif kind == "row_times_p":
        i, k = draw(st.integers(0, n - 1)), draw(st.integers(1, N))
        rows[i] = [x * ring.p_power(k) for x in rows[i]]
    return WittMat(ring, rows)


@st.composite
def matrices(draw, count=1):
    """(ring, n, [count matrices over ring of size n]), each matrix noted as JSON."""
    ring, n = draw(rings), draw(st.integers(1, 5))
    mats = [draw(square(ring, n)) for _ in range(count)]
    for A in mats:
        note(json.dumps(mat_to_obj(A), sort_keys=True))
    return ring, n, mats


@_SETTINGS
@given(matrices(), seeds)
def test_divisor_type_is_invariant_under_transpose_and_units(case, seed):
    ring, n, (A,) = case
    g = sample_group(ring, n, GroupShape.FULL, seed)
    h = sample_group(ring, n, GroupShape.FULL, seed + 1)
    gamma = divisor_type(A)
    assert divisor_type(A.transpose()) == gamma
    assert divisor_type(g * A * h) == gamma


@_SETTINGS
@given(matrices())
def test_snf_reconstructs_the_matrix(case):
    ring, n, (A,) = case
    res = snf(A)
    assert res.divisors == divisor_type(WittMat._from_raw(ring, A._raw))
    D = p_power_diagonal(ring, res.divisors.exponents)
    assert res.left.inverse() * D * res.right.inverse() == A


@_SETTINGS
@given(matrices(count=2), seeds)
def test_det_is_multiplicative(case, seed):
    # the drawn kinds are mostly singular mod a small N, so two FULL samples
    # give a product whose det is a unit, the case where a swap's sign shows
    ring, n, (A, B) = case
    g = sample_group(ring, n, GroupShape.FULL, seed)
    h = sample_group(ring, n, GroupShape.FULL, seed + 1)
    for X, Y in ((A, B), (g, h)):
        note(json.dumps(mat_to_obj(X * Y), sort_keys=True))
        assert (X * Y).det() == X.det() * Y.det()


@_SETTINGS
@given(matrices())
def test_minor_valuations_agree_with_the_type(case):
    ring, n, (A,) = case
    assume(ring.m == 1 or n <= 4)  # minor_valuations' brute force for m > 1
    exps = divisor_type(A).exponents
    assert minor_valuations(A) == tuple(min(ring.N, sum(exps[n - k:])) for k in range(1, n + 1))


@_SETTINGS
@given(matrices())
def test_elimination_follows_the_documented_pivot_rule(case):
    # every value a caller reads equals that of the reference elimination in
    # test_matrix, whose pivot search reads the whole block by the same rule
    ring, n, (A,) = case
    for with_transforms in (False, True):
        exps, sign, M, L, R = _eliminate(ring, A._raw, with_transforms)
        want = _eliminate_with_column_ops(A, with_transforms)
        if with_transforms:
            want = want[:3] + tuple([[e._v for e in row] for row in T] for T in want[3:])
        assert (exps, sign, L, R) == (want[0], want[1], want[3], want[4])
        assert [M[k][k] for k in range(n)] == [want[2][k][k] for k in range(n)]


@_SETTINGS
@given(rings, st.integers(1, 5), seeds)
def test_every_shape_samples_inside_its_group(ring, n, seed):
    for shape in GroupShape:
        A = sample_group(ring, n, shape, seed)
        note(json.dumps(mat_to_obj(A), sort_keys=True))
        assert in_group(A, shape)
