import hashlib
import json
import pickle
import random

import pytest

from wittlat.errors import ShapeError
from wittlat.matrix import GroupShape, WittMat, mat_to_obj, p_power_diagonal, zeros
from wittlat.snf import Cochar, divisor_type, minor_valuations, snf
from wittlat.strata import (classify, enumerate_strata, in_orbit_closure,
                            sample_cover, sample_group, sample_orbit)
from wittlat.witt import witt_ring


def test_cochar_validation():
    Cochar(3, (2, 1, 0))
    with pytest.raises(ValueError):
        Cochar(3, (1, 2, 0))
    with pytest.raises(ValueError):
        Cochar(2, (1, -1))
    with pytest.raises(ValueError):
        Cochar(2, (1, 1, 1))
    assert Cochar.from_obj({"n": 2, "exponents": [2, 0]}).to_obj() == \
        {"n": 2, "exponents": [2, 0]}


def test_already_diagonal():
    R = witt_ring(2, 3)
    res = snf(p_power_diagonal(R, (2, 0)))
    assert res.divisors.exponents == (2, 0)


def test_unit_pivot_example():
    # [[4,0],[1,1]] over Z/8: pivot the unit at (1,0), clear, corner has
    # valuation 2
    R = witt_ring(2, 3)
    A = WittMat.from_ints(R, [[4, 0], [1, 1]])
    res = snf(A)
    assert res.divisors.exponents == (2, 0)
    assert res.left * A * res.right == p_power_diagonal(R, (2, 0))


def test_deformed_diagonal_example():
    # [[2,0],[1,2]] over Z/8 has divisor type (2,0): the single-unit
    # transfer of its diagonal (1,1)
    R = witt_ring(2, 3)
    A = WittMat.from_ints(R, [[2, 0], [1, 2]])
    assert divisor_type(A).exponents == (2, 0)


def test_divisor_type_trivial_cases():
    R = witt_ring(3, 4)
    from wittlat.matrix import identity
    assert divisor_type(identity(R, 3)).exponents == (0, 0, 0)
    assert divisor_type(zeros(R, 3)).exponents == (4, 4, 4)


def test_zero_row_and_column():
    R = witt_ring(2, 3)
    A = WittMat.from_ints(R, [[0, 0], [0, 5]])
    res = snf(A)
    assert res.divisors.exponents == (3, 0)
    assert res.left * A * res.right == p_power_diagonal(R, (3, 0))


def test_snf_inverts_each_pivot_unit_once(monkeypatch):
    # one unit inverse per nonzero pivot, shared by elimination and the
    # unit normalization; zero diagonal entries need none
    calls = []
    R = witt_ring(3, 4, 2)
    inverse = R._inv
    monkeypatch.setattr(R, "_inv", lambda u: calls.append(1) or inverse(u))
    rng = random.Random(17)
    for n in (2, 3, 4):
        for gamma in ((1,) + (0,) * (n - 1), (4,) + (0,) * (n - 1), (2,) * n):
            A = sample_orbit(R, Cochar(n, gamma), rng)
            calls.clear()
            assert snf(A).divisors.exponents == gamma
            assert len(calls) == sum(e < R.N for e in gamma)


# SHA-256 over the JSON of [left, right] for snf on seeded orbit samples:
# p in (2, 3, 5), m in (1, 2, 3), n = 1..6, every stratum at r = 1 and 2,
# recorded while L and R were still built from WittElem operations
_SNF_TRANSFORMS_SHA256 = "593c6a4b37e2143e57410396d05ccb15996205072449006a4ff74ec3dc80903f"


def test_snf_transforms_are_pinned():
    # no golden CLI command prints a transform, so this pins L and R
    digest = hashlib.sha256()
    for p in (2, 3, 5):
        for m in (1, 2, 3):
            for n in range(1, 7):
                for r in (1, 2):
                    ring = witt_ring(p, n * r + 1, m)
                    rng = random.Random(1000 * p + 100 * m + 10 * n + r)
                    strata = enumerate_strata(n, r).strata if n > 1 else [Cochar(1, (r,))]
                    for gamma in strata:
                        res = snf(sample_orbit(ring, gamma, rng))
                        digest.update(json.dumps([mat_to_obj(res.left), mat_to_obj(res.right)],
                                                 sort_keys=True).encode())
    assert digest.hexdigest() == _SNF_TRANSFORMS_SHA256


def test_roundtrip_oracle():
    # the central correctness oracle: snf(x * diag(p^gamma) * y) recovers gamma
    for p, n, r in [(2, 2, 1), (2, 3, 1), (3, 2, 2)]:
        ring = witt_ring(p, n * r + 1)
        strata = enumerate_strata(n, r).strata
        rng = random.Random(100 * p + 10 * n + r)
        for k in range(60):
            gamma = strata[rng.randrange(len(strata))]
            A = sample_orbit(ring, gamma, rng)
            res = snf(A)
            assert res.divisors == gamma
            assert res.left * A * res.right == p_power_diagonal(ring, gamma.exponents)
            assert res.left.det().is_unit() and res.right.det().is_unit()


def test_sum_rule():
    ring = witt_ring(2, 4)
    rng = random.Random(12)
    for _ in range(100):
        A = WittMat(ring, [[ring.random(rng) for _ in range(3)] for _ in range(3)])
        exps = divisor_type(A).exponents
        assert min(ring.N * 3, sum(exps)) >= A.det().valuation()
        if sum(exps) < ring.N:
            assert sum(exps) == A.det().valuation()


def test_minor_valuation_oracle():
    # r_n + ... + r_{n-k+1} = min valuation over k x k minors (capped at N)
    for p, N, n in [(2, 3, 2), (2, 4, 3), (3, 3, 3)]:
        ring = witt_ring(p, N)
        rng = random.Random(13)
        for _ in range(60):
            A = WittMat(ring, [[ring.random(rng) for _ in range(n)] for _ in range(n)])
            exps = divisor_type(A).exponents
            mv = minor_valuations(A)
            for k in range(1, n + 1):
                assert mv[k - 1] == min(N, sum(exps[n - k:]))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_minor_valuations_match_divisor_type_up_to_n7_for_m1(p):
    # for m = 1 the minors of size >= 5 run Bareiss over Z, which shares no
    # code with the elimination behind divisor_type; m > 1 stops at n = 4
    rng = random.Random(70 + p)
    R = witt_ring(p, 4)
    for n in range(1, 8):
        ints = [[rng.randrange(R.pN) for _ in range(n)] for _ in range(n)]
        zero_row, times_pk = [r[:] for r in ints], [r[:] for r in ints]
        zero_row[rng.randrange(n)] = [0] * n
        i, k = rng.randrange(n), rng.randrange(1, R.N)
        times_pk[i] = [p ** k * c for c in ints[i]]
        gamma = Cochar(n, tuple(sorted((rng.randrange(R.N + 1) for _ in range(n)),
                                       reverse=True)))
        for A in (WittMat.from_ints(R, ints), WittMat.from_ints(R, zero_row),
                  WittMat.from_ints(R, times_pk), sample_orbit(R, gamma, rng)):
            exps = divisor_type(A).exponents
            want = tuple(min(R.N, sum(exps[n - kk:])) for kk in range(1, n + 1))
            assert minor_valuations(A) == want, (n, A)
    with pytest.raises(ShapeError, match="n <= 4 for m > 1"):
        minor_valuations(sample_group(witt_ring(p, 3, 2), 5, GroupShape.FULL, rng))


def test_divisor_type_is_two_sided_invariant():
    ring = witt_ring(2, 5)
    rng = random.Random(14)
    for _ in range(40):
        A = WittMat(ring, [[ring.random(rng) for _ in range(2)] for _ in range(2)])
        x = sample_group(ring, 2, GroupShape.FULL, rng)
        y = sample_group(ring, 2, GroupShape.FULL, rng)
        assert divisor_type(x * A * y) == divisor_type(A)


def test_mu_r_orbit():
    ring = witt_ring(2, 3)
    rng = random.Random(15)
    mu = Cochar(2, (2, 0))
    for _ in range(30):
        # a copy, as the sample carries its type: this runs the elimination
        A = WittMat._from_raw(ring, sample_orbit(ring, mu, rng)._raw)
        assert divisor_type(A) == mu


def _vp_capped(x, p, cap):
    x = abs(int(x))
    v = 0
    while x and x % p == 0 and v < cap:
        x //= p
        v += 1
    return v if x else cap


@pytest.mark.parametrize("p,N", [(2, 5), (3, 3), (5, 2)])
def test_divisor_type_against_integer_smith_form(p, N):
    # over Z/p^N the exponents are min(v_p(d_k), N) for the invariant factors
    # d_k of the integer lift; this oracle has no ceiling on n
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form
    ring = witt_ring(p, N)
    pN = p ** N
    rng = random.Random(16 + p)
    for n in range(5, 8):
        for k in range(12):
            rows = [[rng.randrange(pN) for _ in range(n)] for _ in range(n)]
            if k % 3 == 1:
                rows[rng.randrange(n)] = [x * p ** rng.randrange(1, N + 1) % pN
                                          for x in rows[0]]
            elif k % 3 == 2:
                for _ in range(n * n // 2):
                    i, j = rng.randrange(n), rng.randrange(n)
                    rows[i][j] = rows[i][j] * p ** rng.randrange(1, N + 1) % pN
            S = smith_normal_form(Matrix(rows), domain=ZZ)
            want = sorted((_vp_capped(S[i, i], p, N) for i in range(n)), reverse=True)
            assert divisor_type(WittMat.from_ints(ring, rows)).exponents == tuple(want), \
                (p, N, rows)


def _restrict_scalars(A):
    """The nm x nm matrix over Z/p^N of A over W_N(F_{p^m}): entry A_ij
    becomes the matrix of multiplication by A_ij on the basis 1, x, ..., x^(m-1)."""
    R = A.ring
    basis = [R.from_coeffs([int(s == t) for s in range(R.m)]) for t in range(R.m)]
    return WittMat.from_ints(witt_ring(R.p, R.N), [
        [(e * b).coeffs[s] for e in row for b in basis]
        for row in A.rows for s in range(R.m)])


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (2, 3)])
def test_divisor_type_extension_against_restriction_of_scalars(p, m):
    # W_N(F_{p^m}) is free of rank m over Z/p^N and unramified, so over
    # Z/p^N every exponent of A appears m times: the first oracle for m > 1
    rng = random.Random(17 + 10 * p + m)
    for n in range(2, 5):
        N = n + 1
        ring = witt_ring(p, N, m)
        strata = enumerate_strata(n, 1).strata
        for k in range(16):
            rows = [[ring.random(rng) for _ in range(n)] for _ in range(n)]
            if k % 4 == 1:
                rows[rng.randrange(n)] = [ring.zero] * n
            elif k % 4 == 2:
                rows[rng.randrange(n)] = [x * ring.p_power(rng.randrange(1, N + 1))
                                          for x in rows[0]]
            elif k % 4 == 3:
                rows = sample_orbit(ring, strata[rng.randrange(len(strata))], rng).rows
            A = WittMat(ring, rows)
            want = tuple(e for e in divisor_type(A).exponents for _ in range(m))
            assert divisor_type(_restrict_scalars(A)).exponents == want, (p, m, A)


def _memo_matrices(ring, n, rng):
    """Random matrices over W_{n+1}, with a zero row, a row times p^k, and
    (n >= 2) a cover sample at r = 1."""
    N = ring.N
    for k in range(4):
        rows = [[ring.random(rng) for _ in range(n)] for _ in range(n)]
        if k == 1:
            rows[rng.randrange(n)] = [ring.zero] * n
        elif k == 2:
            rows[rng.randrange(n)] = [x * ring.p_power(rng.randrange(1, N + 1))
                                      for x in rows[0]]
        elif k == 3:
            if n < 2:
                continue
            rows = sample_cover(ring, n, 1, rng).rows
        yield WittMat(ring, rows)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:  # NotInCoverError and ShapeError among them
        return type(exc)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_divisor_type_memo(p, m):
    # divisor_type memoises its result on the (immutable) matrix object; the
    # memo must not change any result, nor ==, hash or pickling
    rng = random.Random(31 + 10 * p + m)
    for n in range(1, 6):
        ring = witt_ring(p, n + 1, m)
        for A in _memo_matrices(ring, n, rng):
            div = divisor_type(A)
            assert divisor_type(A) is div

            def fresh():
                return WittMat(A.ring, A.rows)
            assert divisor_type(fresh()) == div
            B = fresh()
            assert snf(B).divisors == div
            assert B._divisors is None  # snf leaves the memo to divisor_type
            assert _outcome(classify, A, 1) == _outcome(classify, fresh(), 1)
            for i in range(n // 2 + 1):
                assert (_outcome(in_orbit_closure, A, i)
                        == _outcome(in_orbit_closure, fresh(), i)), (A, i)
            assert A == fresh() and fresh() == A and hash(A) == hash(fresh())
            for C in (A, fresh()):
                D = pickle.loads(pickle.dumps(C))
                assert D == A and hash(D) == hash(A)
                assert divisor_type(D) == div
