import itertools
import json
import random

import pytest

from wittlat.errors import NotAUnitError, RingMismatchError, ShapeError
from wittlat.matrix import (GroupShape, WittMat, elementary_matrix, identity,
                            in_group, mat_from_obj, mat_to_obj,
                            p_power_diagonal, permutation_matrix, zeros)
from wittlat.strata import sample_group
from wittlat.witt import witt_ring


def _random_mat(ring, n, rng):
    return WittMat(ring, [[ring.random(rng) for _ in range(n)] for _ in range(n)])


def _det_cofactor(rows, ring):
    # the WittElem cofactor expansion that the tuple kernel replaced
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


def _det_leibniz(A):
    # independent oracle: sum over permutations with sign
    n = A.n
    acc = A.ring.zero
    for perm in itertools.permutations(range(n)):
        term = A.ring.one
        for i in range(n):
            term = term * A.rows[i][perm[i]]
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        acc = acc - term if inv % 2 else acc + term
    return acc


def test_identity_and_add():
    R = witt_ring(3, 2)
    rng = random.Random(0)
    A = _random_mat(R, 3, rng)
    assert identity(R, 3) * A == A
    assert A + zeros(R, 3) == A
    assert (A - A) == zeros(R, 3)
    assert A.transpose().transpose() == A


def test_elementary_row_operation():
    R = witt_ring(2, 3)
    rng = random.Random(1)
    A = _random_mat(R, 3, rng)
    c = R.from_int(3)
    E = elementary_matrix(R, 3, 1, 0, c)
    B = E * A
    assert B.rows[1] == tuple(x + c * y for x, y in zip(A.rows[1], A.rows[0]))
    assert B.rows[0] == A.rows[0] and B.rows[2] == A.rows[2]
    with pytest.raises(ValueError):
        elementary_matrix(R, 3, 1, 1, c)


def test_permutation_det_matches_sign():
    R = witt_ring(2, 4)
    for perm in itertools.permutations(range(3)):
        P = permutation_matrix(R, perm)
        d = _det_leibniz(P)
        inv = sum(1 for i in range(3) for j in range(i + 1, 3) if perm[i] > perm[j])
        assert d == (R.one if inv % 2 == 0 else -R.one)
        assert P.det() == d
    with pytest.raises(ValueError):
        permutation_matrix(R, (0, 0, 1))


def test_det_examples():
    R = witt_ring(2, 3)
    assert p_power_diagonal(R, (2, 0)).det().to_int() == 4
    assert identity(R, 2).det() == R.one
    A = WittMat.from_ints(R, [[2, 1], [2, 2]])
    assert A.det().to_int() == 2
    assert A.det_digits() == ((0,), (1,), (0,))


def test_det_multiplicative_and_paths_agree():
    for p, m, N, n in [(2, 1, 3, 2), (3, 1, 3, 3), (2, 2, 2, 2), (2, 1, 4, 4)]:
        R = witt_ring(p, N, m)
        rng = random.Random(2)
        for _ in range(40):
            A, B = _random_mat(R, n, rng), _random_mat(R, n, rng)
            dA = A.det()
            assert dA == _det_leibniz(A)
            assert dA == _det_cofactor(A.rows, R) == A.det_elimination()
            assert (A * B).det() == dA * B.det()


def test_det_elimination_n5():
    R = witt_ring(2, 3)
    rng = random.Random(3)
    for _ in range(10):
        A = _random_mat(R, 5, rng)
        assert A.det() == _det_leibniz(A)


def test_det_invariant_under_elementary_ops():
    R = witt_ring(3, 3)
    rng = random.Random(4)
    A = _random_mat(R, 3, rng)
    for _ in range(20):
        i, j = rng.sample(range(3), 2)
        E = elementary_matrix(R, 3, i, j, R.random(rng))
        assert (E * A).det() == A.det()


def test_minor_and_corners():
    R = witt_ring(2, 5)
    A = p_power_diagonal(R, (3, 1, 0))
    assert A.corner_entry() == R.p_power(3)
    assert A.corner_minor() == R.p_power(1)
    assert A.minor(0, 0) == R.p_power(1)
    B = WittMat.from_ints(R, [[1, 2], [3, 4]])
    assert B.minor(0, 1).to_int() == 3
    assert B.minor(1, 0).to_int() == 2
    with pytest.raises(ShapeError):
        WittMat.from_ints(R, [[1]]).corner_minor()


def test_corner_minor_valuation_under_parabolic_action():
    # v_p(corner_minor(g * D * h)) >= v_p(corner_minor(D)) for g in P,
    # h in P_MINUS and diagonal D
    R = witt_ring(2, 5)
    rng = random.Random(5)
    for exps in [(4, 1, 0), (2, 2, 0), (3, 0, 0)]:
        D = p_power_diagonal(R, exps)
        base = D.corner_minor().valuation()
        for _ in range(25):
            g = sample_group(R, 3, GroupShape.P, rng)
            h = sample_group(R, 3, GroupShape.P_MINUS, rng)
            assert (g * D * h).corner_minor().valuation() >= base


def test_in_group_examples():
    R = witt_ring(2, 3)
    I = identity(R, 2)
    for shape in GroupShape:
        assert in_group(I, shape)
    assert not in_group(p_power_diagonal(R, (1, 0)), GroupShape.FULL)
    A = WittMat.from_ints(R, [[1, 1], [2, 1]])
    assert in_group(A, GroupShape.B)
    assert not in_group(A, GroupShape.B_MINUS)
    assert in_group(A, GroupShape.FULL)
    assert not in_group(A, GroupShape.P)
    P = WittMat.from_ints(R, [[3, 1], [0, 5]])
    assert in_group(P, GroupShape.P)
    assert in_group(P.transpose(), GroupShape.P_MINUS)


def test_full_group_closed_under_product_and_inverse():
    R = witt_ring(3, 3)
    rng = random.Random(6)
    for _ in range(25):
        A = sample_group(R, 2, GroupShape.FULL, rng)
        B = sample_group(R, 2, GroupShape.FULL, rng)
        assert in_group(A * B, GroupShape.FULL)
        Ainv = A.inverse()
        assert in_group(Ainv, GroupShape.FULL)
        assert A * Ainv == identity(R, 2)
        assert Ainv * A == identity(R, 2)


def test_inverse_requires_unit_det():
    R = witt_ring(2, 3)
    with pytest.raises(NotAUnitError):
        p_power_diagonal(R, (1, 0)).inverse()


def test_inverse_n3():
    R = witt_ring(5, 2)
    rng = random.Random(7)
    for _ in range(10):
        A = sample_group(R, 3, GroupShape.FULL, rng)
        assert A * A.inverse() == identity(R, 3)


def test_shape_and_ring_validation():
    R = witt_ring(2, 3)
    S = witt_ring(2, 4)
    with pytest.raises(ShapeError):
        WittMat(R, [[R.one, R.zero]])
    with pytest.raises(RingMismatchError):
        WittMat(R, [[S.one, R.zero], [R.zero, R.one]])
    A = identity(R, 2)
    with pytest.raises(ShapeError):
        A * identity(R, 3)
    with pytest.raises(RingMismatchError):
        A * identity(S, 2)


def test_json_roundtrip():
    for p, m, N, n in [(2, 1, 3, 2), (3, 2, 2, 3)]:
        R = witt_ring(p, N, m)
        rng = random.Random(8)
        A = _random_mat(R, n, rng)
        obj = mat_to_obj(A)
        assert mat_from_obj(json.loads(json.dumps(obj))) == A


def test_json_header_mismatch():
    R = witt_ring(2, 3)
    obj = mat_to_obj(identity(R, 2))
    obj["entries"][0][0]["N"] = 4
    with pytest.raises(RingMismatchError):
        mat_from_obj(obj)


# -- differential checks of the raw-value kernel ---------------------------------------

class _CountingRandom(random.Random):
    draws = 0

    def randrange(self, *args, **kwargs):
        self.draws += 1
        return super().randrange(*args, **kwargs)


def _structured_int_mats(p, N, n, rng):
    """Integer matrices with zero, scaled, repeated or permuted structure."""
    pN = p ** N

    def rand():
        return [[rng.randrange(pN) for _ in range(n)] for _ in range(n)]

    out = [rand(), rand(), rand()]
    A = rand()
    A[rng.randrange(n)] = [0] * n
    out.append(A)
    A, j = rand(), rng.randrange(n)
    for row in A:
        row[j] = 0
    out.append(A)
    A, i = rand(), rng.randrange(n)
    A[i] = [x * p ** rng.randrange(1, N + 1) % pN for x in A[i]]
    out.append(A)
    if n > 1:
        A = rand()
        i, j = rng.sample(range(n), 2)
        A[j] = list(A[i])
        out.append(A)
    exps = [rng.randrange(N + 1) for _ in range(n)]
    out.append([[p ** exps[i] % pN if i == j else 0 for j in range(n)] for i in range(n)])
    perm = list(range(n))
    rng.shuffle(perm)
    out.append([[p ** exps[i] % pN if j == perm[i] else 0 for j in range(n)]
                for i in range(n)])
    return out


@pytest.mark.parametrize("p,N", [(2, 6), (3, 4), (5, 3)])
def test_det_kernel_against_oracles(p, N):
    from sympy import Matrix
    R = witt_ring(p, N)
    rng = random.Random(40 + p)
    for n in range(1, 8):
        for rows in _structured_int_mats(p, N, n, rng):
            A = WittMat.from_ints(R, rows)
            d = A.det()
            assert d == A.det_elimination(), (p, N, rows)
            if n <= 5:
                assert d == _det_cofactor(A.rows, R), (p, N, rows)
            assert d.to_int() == int(Matrix(rows).det()) % p ** N, (p, N, rows)


def _structured_ext_mats(R, n, rng):
    """m > 1 matrices: random, a zero row, a row times p^k, a zero column,
    p-power and unit-scaled p-power diagonals, and a repeated row."""
    def rand():
        return [[R.random(rng) for _ in range(n)] for _ in range(n)]

    out = [rand(), rand()]
    A = rand()
    A[rng.randrange(n)] = [R.zero] * n
    out.append(A)
    A, i = rand(), rng.randrange(n)
    A[i] = [x * R.p_power(rng.randrange(1, R.N + 1)) for x in A[i]]
    out.append(A)
    A, j = rand(), rng.randrange(n)
    for row in A:
        row[j] = R.zero
    out.append(A)
    exps = [rng.randrange(R.N + 1) for _ in range(n)]
    out.append([[R.p_power(exps[i]) if i == j else R.zero for j in range(n)]
                for i in range(n)])
    out.append([[R.p_power(exps[i]) * R.random_unit(rng) if i == j else R.zero
                 for j in range(n)] for i in range(n)])
    if n > 1:
        A = rand()
        i, j = rng.sample(range(n), 2)
        A[j] = list(A[i])
        out.append(A)
    return [WittMat(R, rows) for rows in out]


@pytest.mark.parametrize("p,N,m", [(2, 3, 2), (3, 4, 2), (5, 2, 2), (2, 3, 3), (3, 2, 3),
                                   (2, 2, 4)])
def test_tuple_det_against_elem_cofactor(p, N, m):
    R = witt_ring(p, N, m)
    rng = random.Random(60 + 7 * p + m)
    for n in range(1, 5):
        for _ in range(3):
            for A in _structured_ext_mats(R, n, rng):
                d = A.det()
                assert d == _det_cofactor(A.rows, R) == A.det_elimination(), (p, N, m, A)
                if n > 1:
                    assert A.minor(0, 0) == _det_cofactor(tuple(r[1:] for r in A.rows[1:]), R)


def _mul_reference(A, B):
    ring, n = A.ring, A.n
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ring.zero
            for k in range(n):
                acc = acc + A.rows[i][k] * B.rows[k][j]
            row.append(acc)
        out.append(row)
    return WittMat(ring, out)


@pytest.mark.parametrize("p,N,m", [(2, 4, 1), (5, 3, 1), (2, 3, 2), (3, 3, 2), (2, 3, 3)])
def test_mul_kernel_against_entrywise_reference(p, N, m):
    R = witt_ring(p, N, m)
    rng = random.Random(50 + p + m)
    for n in range(1, 5):
        for _ in range(8):
            A, B = _random_mat(R, n, rng), _random_mat(R, n, rng)
            assert A * B == _mul_reference(A, B)
        D = p_power_diagonal(R, [rng.randrange(N + 1) for _ in range(n)])
        assert D * A == _mul_reference(D, A) and A * D == _mul_reference(A, D)


def _full_sample_reference(ring, n, rng):
    # the WittElem sampler: uniform entries until the determinant is a unit
    while True:
        A = WittMat(ring, [[ring.random(rng) for _ in range(n)] for _ in range(n)])
        if A.det_elimination().is_unit():
            return A


@pytest.mark.parametrize("p,N,m", [(2, 3, 1), (3, 4, 1), (5, 2, 1), (2, 3, 2), (3, 4, 2),
                                   (2, 3, 3)])
def test_full_sampler_matches_reference_stream(p, N, m):
    R = witt_ring(p, N, m)
    for n in range(1, 6):
        for seed in range(6):
            fast, ref = _CountingRandom(seed), _CountingRandom(seed)
            A = sample_group(R, n, GroupShape.FULL, fast)
            assert A == _full_sample_reference(R, n, ref)
            assert fast.draws == ref.draws and fast.draws % (n * n * m) == 0
            assert fast.random() == ref.random()
