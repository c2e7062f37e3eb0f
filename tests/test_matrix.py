import hashlib
import itertools
import json
import pickle
import random

import pytest

from wittlat import matrix
from wittlat.errors import NotAUnitError, RingMismatchError, ShapeError
from wittlat.cli import _census_matrix
from wittlat.matrix import (GroupShape, WittMat, _eliminate, diagonal, elementary_matrix,
                            identity, in_group, mat_from_obj, mat_to_obj, p_power_diagonal,
                            permutation_matrix, zeros)
from wittlat.snf import Cochar, divisor_type, snf
from wittlat.strata import sample_group, sample_orbit
from wittlat.witt import WittElem, witt_ring

from counting import counting


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


def _det_elimination(A):
    # independent oracle: row operations only, the pivot the minimal
    # valuation in its column, unlike det()'s full-pivot elimination for
    # m > 1, n > 4; quotients by a pivot are defined only up to its
    # annihilator, but every choice is an elementary row operation
    ring, n = A.ring, A.n
    M = [list(r) for r in A.rows]
    sign = 1
    for k in range(n):
        piv_v, piv_i = min((M[i][k].valuation(), i) for i in range(k, n))
        if piv_v >= ring.N:
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


@pytest.mark.parametrize("i,j", [(-1, 2), (2, -1), (3, 0), (0, 3), (-4, 0), (1, 1)])
def test_elementary_matrix_rejects_bad_indices(i, j):
    # negative indices would wrap (and -1, 2 put c on the diagonal), large ones
    # would raise a bare IndexError
    R = witt_ring(2, 3)
    with pytest.raises(ValueError):
        elementary_matrix(R, 3, i, j, R.from_int(4))


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
            assert dA == _det_cofactor(A.rows, R) == _det_elimination(A)
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


@pytest.mark.parametrize("i,j", [(-1, -1), (-3, 0), (0, -1), (0, 3), (3, 0), (3, 3)])
def test_minor_rejects_indices_out_of_range(i, j):
    # (-1, -1) returned W(0), (-3, 0) the (0, 0) minor, (0, 3) and (3, 0)
    # an unpacking ValueError from the det kernel
    A = WittMat.from_ints(witt_ring(3, 4), [[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert A.minor(2, 2).to_int() == 78 and A.minor(0, 0).to_int() == 2
    with pytest.raises(ValueError, match=r"^minor requires indices in \[0, 3\)$"):
        A.minor(i, j)


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


def test_in_group_checks_the_shape_before_the_determinant():
    # a singular matrix returned False for any shape, a unit one raised
    R = witt_ring(2, 3)
    for A in (zeros(R, 2), p_power_diagonal(R, (1, 0)), identity(R, 2)):
        for shape in ("bogus", GroupShape.FULL.value, None):
            with pytest.raises(ValueError, match="^unknown shape"):
                in_group(A, shape)


# SHA-256 of in_group's verdict for every shape on every 2 x 2 matrix over Z/8,
# Z/9 and W_2(F_4) and on every 3 x 3 matrix over Z/2, one byte per matrix and
# shape in row-major enumeration order.  A wrong entry rule for any shape moves it.
_MEMBERSHIP_SHA256 = "b24fa9b6f8baa5754dd1dd7396ea67bd1d0f946df5664d66afa8921aaab4b09d"


def test_membership_of_every_small_matrix_is_pinned():
    digest = hashlib.sha256()
    for p, N, m, n in ((2, 3, 1, 2), (3, 2, 1, 2), (2, 2, 2, 2), (2, 1, 1, 3)):
        ring = witt_ring(p, N, m)
        values = range(ring.pN) if m == 1 else list(itertools.product(range(ring.pN), repeat=m))
        bits = {shape: bytearray() for shape in GroupShape}
        for entries in itertools.product(values, repeat=n * n):
            A = WittMat._from_raw(ring, tuple(zip(*[iter(entries)] * n)))
            for shape, out in bits.items():
                out.append(in_group(A, shape))
        for shape, out in bits.items():
            digest.update(repr((p, N, m, n, shape.value)).encode() + bytes(out))
    assert digest.hexdigest() == _MEMBERSHIP_SHA256


def test_matrix_refuses_scalars_and_foreign_equality():
    R = witt_ring(2, 3)
    A = identity(R, 2)
    with pytest.raises(TypeError, match="^expected a WittMat$"):
        A * 3
    for other in (((1, 0), (0, 1)), [[R.one, R.zero], [R.zero, R.one]], R.one, None):
        assert A != other and not A == other


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
    for n in (1, 2):
        with pytest.raises(NotAUnitError):
            p_power_diagonal(R, (1, 0)[:n]).inverse()


def test_inverse_n1():
    R = witt_ring(3, 2, 2)
    u = R.from_coeffs((4, 1))
    inv = WittMat(R, [[u]]).inverse()
    assert inv == WittMat(R, [[u.inverse()]]) and inv.rows[0][0] * u == R.one


def test_sample_group_rejects_an_unknown_shape():
    R = witt_ring(2, 3)
    for shape in ("full", None, GroupShape.FULL.value):
        with pytest.raises(ValueError, match="^unknown shape"):
            sample_group(R, 2, shape, 1)


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


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("bad", ["int", "foreign_ring", "other_m"])
def test_diagonal_and_elementary_matrix_check_entries_like_wittmat(m, bad):
    # both stored an entry's bare value unchecked: a W_5 element 20 stayed
    # unreduced in W_3 and an int raised AttributeError
    R = witt_ring(2, 3, m)
    c = {"int": 20, "foreign_ring": witt_ring(2, 5, m).from_int(20),
         "other_m": witt_ring(2, 3, 3 - m).from_int(5)}[bad]

    def raised(build):
        with pytest.raises(Exception) as info:
            build()
        return type(info.value), str(info.value)
    want = raised(lambda: WittMat(R, [[c, R.zero], [R.zero, R.one]]))
    assert want[0] is (TypeError if bad == "int" else RingMismatchError)
    assert raised(lambda: diagonal(R, [c, R.one])) == want
    assert raised(lambda: elementary_matrix(R, 2, 0, 1, c)) == want
    assert raised(lambda: diagonal(R, iter([R.one, c]))) == want
    c = R.from_int(5)
    assert diagonal(R, iter([c, R.one])) == WittMat(R, [[c, R.zero], [R.zero, R.one]])
    assert elementary_matrix(R, 2, 0, 1, c) == WittMat(R, [[R.one, c], [R.zero, R.one]])


def test_json_roundtrip():
    # a JSON object names its ring by (p, m, N): the value and its divisor
    # type come back unchanged, orbit samples of every exponent vector included
    for p, m, N, n in [(2, 1, 3, 2), (3, 2, 2, 3), (2, 3, 3, 2), (5, 1, 4, 3), (5, 2, 3, 2)]:
        R = witt_ring(p, N, m)
        rng = random.Random(8)
        mats = [_random_mat(R, n, rng)]
        mats += [sample_orbit(R, Cochar(n, e), rng)
                 for e in itertools.product(range(N + 1), repeat=n) if list(e) == sorted(e)[::-1]]
        for A in mats:
            B = mat_from_obj(json.loads(json.dumps(mat_to_obj(A))))
            assert B == A and B.ring is R
            assert divisor_type(B) == divisor_type(A)


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
            assert d == _det_elimination(A), (p, N, rows)
            if n <= 5:
                assert d == _det_cofactor(A.rows, R), (p, N, rows)
            assert d.to_int() == int(Matrix(rows).det()) % p ** N, (p, N, rows)


def _structured_ext_mats(R, n, rng):
    """m > 1 matrices: random, a zero row, a row times p^k, a zero column,
    p-power, unit-scaled and permuted p-power diagonals (the last has the
    permutation's sign in its det), and a repeated row (det 0)."""
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
    perm = rng.sample(range(n), n)
    out.append([[R.p_power(exps[i]) if j == perm[i] else R.zero for j in range(n)]
                for i in range(n)])
    if n > 1:
        A = rand()
        i, j = rng.sample(range(n), 2)
        A[j] = list(A[i])
        out.append(A)
    return [WittMat(R, rows) for rows in out]


@pytest.mark.parametrize("p,N,m", [(2, 3, 2), (3, 4, 2), (5, 2, 2), (2, 3, 3), (3, 2, 3),
                                   (2, 2, 4)])
def test_tuple_det_against_elem_cofactor(p, N, m):
    # n <= 4 is the tuple cofactor expansion, n = 5..7 the signed diagonal of
    # the full-pivot elimination; the WittElem cofactor oracle stops at 4
    R = witt_ring(p, N, m)
    rng = random.Random(60 + 7 * p + m)
    for n in range(1, 8):
        for _ in range(3):
            for A in _structured_ext_mats(R, n, rng):
                d = A.det()
                assert d == _det_elimination(A), (p, N, m, A)
                if n <= 4:
                    assert d == _det_cofactor(A.rows, R), (p, N, m, A)
                if 1 < n <= 4:
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


@pytest.mark.parametrize("p,N,m", [(2, 4, 1), (5, 3, 1), (2, 3, 2), (3, 3, 2), (2, 3, 3),
                                   (3, 2, 3), (2, 2, 4), (5, 2, 4)])
def test_mul_kernel_against_entrywise_reference(p, N, m):
    R = witt_ring(p, N, m)
    rng = random.Random(50 + p + m)
    for n in range(1, 8):
        for _ in range(8):
            A, B = _random_mat(R, n, rng), _random_mat(R, n, rng)
            assert A * B == _mul_reference(A, B)
        D = p_power_diagonal(R, [rng.randrange(N + 1) for _ in range(n)])
        assert D * A == _mul_reference(D, A) and A * D == _mul_reference(A, D)


def _full_sample_reference(ring, n, rng):
    # the WittElem sampler: uniform entries until the determinant is a unit
    while True:
        A = WittMat(ring, [[ring.random(rng) for _ in range(n)] for _ in range(n)])
        if _det_elimination(A).is_unit():
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


@pytest.mark.parametrize("p,N,m", [(2, 3, 1), (3, 4, 1), (2, 3, 2), (3, 2, 3)])
def test_samplers_draw_the_same_with_and_without_a_randrange_override(p, N, m):
    # random.Random takes the getrandbits draws, _CountingRandom its randrange
    R = witt_ring(p, N, m)

    shapes = (GroupShape.FULL, GroupShape.B, GroupShape.B_MINUS, GroupShape.P)

    def draws(n, rng):
        gamma = Cochar(n, tuple(range(n - 1, -1, -1)))
        return (*[sample_group(R, n, shape, rng) for shape in shapes],
                sample_orbit(R, gamma, rng), R.random(rng), rng.random())
    for n in range(1, 5):
        for seed in range(4):
            assert draws(n, random.Random(seed)) == draws(n, _CountingRandom(seed))


@pytest.mark.parametrize("rows", [[], [[1, 2], [3]], [[1, 2]], [[1, 2, 3], [4, 5, 6]]])
def test_from_ints_rejects_empty_ragged_or_nonsquare(rows):
    for R in (witt_ring(2, 3), witt_ring(2, 3, 2)):
        with pytest.raises(ShapeError):
            WittMat.from_ints(R, rows)


_EMPTY_CONSTRUCTORS = {
    "identity(R, 0)": lambda R: identity(R, 0),
    "identity(R, -1)": lambda R: identity(R, -1),
    "zeros(R, 0)": lambda R: zeros(R, 0),
    "diagonal(R, [])": lambda R: diagonal(R, []),
    "p_power_diagonal(R, [])": lambda R: p_power_diagonal(R, []),
    "permutation_matrix(R, [])": lambda R: permutation_matrix(R, []),
}


@pytest.mark.parametrize("name", list(_EMPTY_CONSTRUCTORS))
def test_empty_diagonal_constructors_raise_shape_error(name):
    # they returned a 0 x 0 matrix whose det, snf, product and in_group
    # raised KeyError(()); now they fail like WittMat and from_ints
    for R in (witt_ring(2, 3), witt_ring(3, 2, 2)):
        memo = dict(R._diagonals)
        with pytest.raises(ShapeError, match="^matrix must be square and nonempty$"):
            _EMPTY_CONSTRUCTORS[name](R)
        assert R._diagonals == memo


def test_p_power_diagonals_are_built_once_per_ring_and_exponents():
    for R in (witt_ring(2, 3), witt_ring(3, 2, 2)):
        N = R.N
        D = p_power_diagonal(R, (2, 0, N))
        assert p_power_diagonal(R, [2, 0, N]) is D
        assert p_power_diagonal(R, iter((2, 0, N))) is D
        assert p_power_diagonal(R, (True + 1, False, N)) is D  # keyed by operator.index
        assert D == WittMat(R, ((R.p_power(2), R.zero, R.zero),
                                (R.zero, R.one, R.zero), (R.zero, R.zero, R.zero)))
        for n in range(1, 5):
            assert identity(R, n) is identity(R, n) is p_power_diagonal(R, (0,) * n)
            assert zeros(R, n) is p_power_diagonal(R, (N,) * n)
        # exponents above N give the zero entry of exponent N, but no memo entry
        big = p_power_diagonal(R, (N + 5, 1))
        assert big == p_power_diagonal(R, (N, 1)) and (N + 5, 1) not in R._diagonals
        assert max(max(key) for key in R._diagonals) <= N


def test_p_power_diagonal_rejects_bad_exponents_on_every_call():
    R = witt_ring(2, 3)
    for _ in range(2):
        with pytest.raises(ValueError, match="negative"):
            p_power_diagonal(R, (1, -1))
        assert (1, -1) not in R._diagonals
    p_power_diagonal(R, (1, 0))
    assert (1, 0) in R._diagonals
    for bad in ((1.0, 0), (5.0, 0), ("1", 0)):
        with pytest.raises(TypeError):
            p_power_diagonal(R, bad)


@pytest.mark.parametrize("bad", [1.5, 2.0, "3", None, (1,)])
def test_from_ints_and_from_int_reject_non_integers(bad):
    for R in (witt_ring(2, 3), witt_ring(2, 3, 2)):
        with pytest.raises(TypeError):
            WittMat.from_ints(R, [[bad, 2], [3, 4]])
        with pytest.raises(TypeError):
            R.from_int(bad)
    R = witt_ring(2, 3)
    assert WittMat.from_ints(R, [[True, -1], [9, 4]]) == WittMat.from_ints(R, [[1, 7], [1, 4]])


@pytest.mark.parametrize("build", [
    lambda R: Cochar(2, (1.5, 0.5)),
    lambda R: Cochar.from_obj({"n": 2.9, "exponents": ["2", 0.0]}),
    lambda R: R.from_coeffs([1.5]),
    lambda R: R.from_coeffs(["3"]),
    lambda R: WittElem(R, [2.9]),
], ids=["cochar", "cochar_from_obj", "from_coeffs_float", "from_coeffs_str", "elem_init"])
def test_non_integer_values_are_rejected_not_truncated(build):
    with pytest.raises(TypeError):
        build(witt_ring(2, 3))


def _storage_cases(R, n, rng):
    """(name, matrix) pairs from every constructor and producer of matrices."""
    elems = [[R.random(rng) for _ in range(n)] for _ in range(n)]
    A = WittMat(R, elems)
    ints = [[rng.randrange(-R.pN, 2 * R.pN) for _ in range(n)] for _ in range(n)]
    out = [("init", A), ("from_ints", WittMat.from_ints(R, ints)), ("transpose", A.transpose())]
    for shape in (GroupShape.FULL, GroupShape.P, GroupShape.B):
        out.append((shape.value, sample_group(R, n, shape, rng)))
    gamma = Cochar(n, tuple(sorted((rng.randrange(R.N + 1) for _ in range(n)), reverse=True)))
    X = sample_orbit(R, gamma, rng)
    res = snf(X)
    out += [("product", out[-1][1] * A), ("orbit", X), ("left", res.left), ("right", res.right)]
    return out


@pytest.mark.parametrize("p,m,n", [(p, m, n) for p in (2, 3) for m in (1, 2, 3)
                                   for n in range(1, 6)])
def test_raw_storage_and_elem_view_agree(p, m, n):
    R = witt_ring(p, 3 if p == 2 else 2, m)
    rng = random.Random(1000 * p + 100 * m + n)
    for name, A in _storage_cases(R, n, rng):
        raw = A._raw
        assert type(raw) is tuple and all(type(r) is tuple for r in raw), name
        want = tuple(tuple(e.coeffs[0] if m == 1 else e.coeffs for e in r) for r in A.rows)
        assert raw == want, name
        assert all(A[i, j] == A.rows[i][j] for i in range(n) for j in range(n)), name
        # equal values: equal and hash-equal whichever constructor built them
        for B in (WittMat(R, A.rows), WittMat._from_raw(R, raw)):
            assert B == A and hash(B) == hash(A), name
        if m == 1:
            B = WittMat.from_ints(R, raw)
            assert B == A and hash(B) == hash(A), name
        divisor_type(A)
        B = pickle.loads(pickle.dumps(A))
        assert B == A and B._raw == raw and B._divisors == A._divisors is not None, name
        assert B.rows == A.rows, name
        assert A.det() == _det_cofactor(A.rows, R), name
        if n > 1:
            i, j = rng.randrange(n), rng.randrange(n)
            sub = tuple(r[:j] + r[j + 1:] for r in A.rows[:i] + A.rows[i + 1:])
            assert A.minor(i, j) == _det_cofactor(sub, R), name
            assert A.corner_minor() == A.minor(0, 0) and A.corner_entry() == A.rows[0][0]


# -- elimination against the column-operation oracle ----------------------------------

def _find_pivot_full_scan(M, k, n, N):
    # the pivot search as it was before it stopped at the last pivot's
    # valuation: every entry of the active block is read
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


def _eliminate_with_column_ops(A, with_transforms):
    # the elimination as it was before its column operations on M were
    # dropped: it also clears each pivot's row of M, so M ends diagonal; its
    # rows are updated whole and its pivot search reads the whole block
    ring = A.ring
    n, N = A.n, ring.N
    M = [list(r) for r in A.rows]
    L = R = None
    if with_transforms:
        one, zero = ring.one, ring.zero
        L = [[one if i == j else zero for j in range(n)] for i in range(n)]
        R = [[one if i == j else zero for j in range(n)] for i in range(n)]
    exps, dividers, sign = [], [], 1
    for k in range(n):
        found = _find_pivot_full_scan(M, k, n, N)
        if found is None:
            exps.extend([N] * (n - k))
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
    if with_transforms:
        for k, divide in enumerate(dividers):
            w = divide(ring.p_power(exps[k]))
            if w != ring.one:
                for row in R:
                    row[k] = row[k] * w
        L.reverse()
        for row in R:
            row.reverse()
    return exps, sign, M, L, R


@pytest.mark.parametrize("p,N,m", [(p, N, m) for p, N in ((2, 4), (3, 3), (5, 2))
                                   for m in (1, 2, 3)])
def test_eliminate_matches_column_op_oracle(p, N, m):
    # random, orbit and structured inputs: every value a caller reads (pivot
    # valuations, swap sign, M's diagonal, L and R, the last two as the bare
    # values of the oracle's entries) equals the oracle's, and M is
    # upper-triangular
    R = witt_ring(p, N, m)
    rng = random.Random(700 + 10 * p + m)
    for n in range(1, 8):
        mats = _structured_ext_mats(R, n, rng) + _structured_ext_mats(R, n, rng)
        for _ in range(3):
            gamma = sorted((rng.randrange(N + 1) for _ in range(n)), reverse=True)
            mats.append(sample_orbit(R, Cochar(n, tuple(gamma)), rng))
        for A in mats:
            for with_transforms in (False, True):
                exps, sign, M, L, right = _eliminate(R, A._raw, with_transforms)
                want = _eliminate_with_column_ops(A, with_transforms)
                if with_transforms:  # _eliminate's L and R hold bare values
                    want = want[:3] + tuple([[e._v for e in row] for row in T]
                                            for T in want[3:])
                assert (exps, sign, L, right) == (want[0], want[1], want[3], want[4]), A
                assert [M[k][k] for k in range(n)] == [want[2][k][k] for k in range(n)], A
                assert all(M[i][j].is_zero() for i in range(n) for j in range(i)), A


@pytest.mark.parametrize("p,N,m", [(p, N, m) for p, N in ((2, 4), (3, 3), (5, 2))
                                   for m in (1, 2, 3)])
def test_bounded_pivot_search_matches_full_scan(p, N, m, monkeypatch):
    # at every call of divisor_type's and snf's elimination, the search that
    # stops at the last pivot's valuation picks the full scan's pivot, and no
    # entry of the active block lies below that valuation
    bounded, seen = matrix._find_pivot, []

    def checked(M, k, n, N, lo):
        if k == 0:
            seen.clear()
        got, want = bounded(M, k, n, N, lo), _find_pivot_full_scan(M, k, n, N)
        assert got == want, (k, M)
        if want is not None:
            assert lo <= want[0] and (not seen or seen[-1] <= want[0]), (seen, want)
            seen.append(want[0])
        return got

    monkeypatch.setattr(matrix, "_find_pivot", checked)
    R = witt_ring(p, N, m)
    rng = random.Random(900 + 10 * p + m)
    for n in range(1, 8):
        mats = _structured_ext_mats(R, n, rng) + _structured_ext_mats(R, n, rng)
        for _ in range(3):
            gamma = sorted((rng.randrange(N + 1) for _ in range(n)), reverse=True)
            mats.append(sample_orbit(R, Cochar(n, tuple(gamma)), rng))
        for A in mats:
            fresh = WittMat._from_raw(R, A._raw)  # divisor_type memoises per object
            assert divisor_type(fresh) == snf(A).divisors, A


# Products, differences and valuations that divisor_type spends on
# census-like sets: 20 census samples for each p in (2, 3, 5) and n = 2..6
# with m = 1, and 10 for p = 3, n = 2..5 with m = 2 (r = 1, so N = n + 1).
# Each is one ring protocol call, counted by tests/counting.py wherever it is
# made: in a WittElem operation (M's row updates), a divider or its divide.
# Counted on WittElem operations and protocol calls with a depth guard, the
# same sets took (8323, 6246, 4424) for m = 1 and (900, 500, 443) for m = 2;
# the m = 2 products then included the two of each of the 100 norm
# inverses, Norm(u) and its check u * u^-1, which the generated inverse
# kernel now makes inline.
# When elimination also cleared each pivot's row of M by column operations,
# the same sets took (products, differences) = (24984, 20827) for m = 1 and
# (2200, 1700) for m = 2.  With whole-row updates, a pivot search over the
# whole active block and a guarded unit division they took
# (products, differences, valuations) = (12479, 10402, 14677) for m = 1 and
# (1150, 850, 1340) for m = 2.
_DIVISOR_TYPE_OP_COUNTS = {
    1: {"mul": 8323, "sub": 6246, "val": 4424, "inv": 900, "divider": 900, "divide": 2077},
    2: {"mul": 700, "sub": 500, "val": 443, "inv": 100, "divider": 100, "divide": 200},
}


def test_divisor_type_op_counts_are_pinned():
    # machine-independent: dead work coming back shows here without timing
    sets = {1: [(p, n, 20) for p in (2, 3, 5) for n in range(2, 7)],
            2: [(3, n, 10) for n in range(2, 6)]}
    got = {}
    for m, params in sets.items():
        mats = [_census_matrix(witt_ring(p, n + 1, m), n, 1409, k)
                for p, n, count in params for k in range(count)]
        with counting(*{A.ring for A in mats}) as counts:
            for A in mats:
                divisor_type(A)
        got[m] = dict(counts)
    assert got == _DIVISOR_TYPE_OP_COUNTS


def _census_slice():
    """((p, n), A) for four seeded census items per (p, n) of the census grid,
    in kind order: a uniform draw (kind 0), then the three near-singular kinds
    of the census workload: a zero row (1), a row times p^s (2) and scattered
    entries times powers of p (3)."""
    for p, n in itertools.product((2, 3, 5), range(2, 7)):
        ring, rng = witt_ring(p, n + 1), random.Random(100 * p + n)
        N, pN = ring.N, ring.pN
        for kind in range(4):
            rows = [[rng.randrange(pN) for _ in range(n)] for _ in range(n)]
            if kind == 1:
                rows[rng.randrange(n)] = [0] * n
            elif kind == 2:
                i, s = rng.randrange(n), p ** rng.randrange(1, N)
                rows[i] = [x * s % pN for x in rows[i]]
            elif kind == 3:
                for _ in range(rng.randrange(1, n * n)):
                    i, j = rng.randrange(n), rng.randrange(n)
                    rows[i][j] = rows[i][j] * p ** rng.randrange(1, N + 1) % pN
            yield (p, n), WittMat.from_ints(ring, rows)


# Per-item protocol calls of divisor_type on _census_slice, as
# (mul, sub, val, inv, divider, divide) for kinds 0-3 of each (p, n).  Where the
# aggregate pin above says that elimination's work moved, this one names the
# items, and the near-singular kinds exercise the non-unit pivots.
_CENSUS_SLICE_OP_KEYS = ("mul", "sub", "val", "inv", "divider", "divide")
_CENSUS_SLICE_OP_COUNTS = {
    (2, 2): ((2, 1, 6, 1, 1, 1), (0, 0, 4, 1, 1, 0),
             (2, 1, 4, 1, 1, 1), (2, 1, 4, 1, 1, 1)),
    (2, 3): ((6, 4, 8, 2, 2, 2), (3, 2, 10, 2, 2, 1),
             (8, 5, 14, 2, 2, 3), (8, 5, 8, 2, 2, 3)),
    (2, 4): ((20, 14, 19, 3, 3, 6), (11, 8, 18, 3, 3, 3),
             (11, 8, 18, 3, 3, 3), (20, 14, 22, 3, 3, 6)),
    (2, 5): ((36, 27, 21, 4, 4, 9), (26, 20, 28, 4, 4, 6),
             (40, 30, 21, 4, 4, 10), (35, 26, 24, 4, 4, 9)),
    (2, 6): ((70, 55, 41, 5, 5, 15), (50, 40, 39, 5, 5, 10),
             (60, 47, 36, 5, 5, 13), (60, 47, 26, 5, 5, 13)),
    (3, 2): ((2, 1, 4, 1, 1, 1), (0, 0, 6, 1, 1, 0),
             (2, 1, 7, 1, 1, 1), (0, 0, 6, 1, 1, 0)),
    (3, 3): ((8, 5, 10, 2, 2, 3), (3, 2, 8, 2, 2, 1),
             (8, 5, 11, 2, 2, 3), (8, 5, 10, 2, 2, 3)),
    (3, 4): ((20, 14, 13, 3, 3, 6), (11, 8, 15, 3, 3, 3),
             (20, 14, 13, 3, 3, 6), (20, 14, 13, 3, 3, 6)),
    (3, 5): ((40, 30, 19, 4, 4, 10), (26, 20, 19, 4, 4, 6),
             (40, 30, 19, 4, 4, 10), (26, 20, 28, 4, 4, 6)),
    (3, 6): ((70, 55, 28, 5, 5, 15), (50, 40, 26, 5, 5, 10),
             (70, 55, 36, 5, 5, 15), (70, 55, 28, 5, 5, 15)),
    (5, 2): ((2, 1, 4, 1, 1, 1), (0, 0, 4, 1, 1, 0),
             (2, 1, 4, 1, 1, 1), (2, 1, 4, 1, 1, 1)),
    (5, 3): ((8, 5, 8, 2, 2, 3), (3, 2, 10, 2, 2, 1),
             (8, 5, 8, 2, 2, 3), (8, 5, 10, 2, 2, 3)),
    (5, 4): ((20, 14, 13, 3, 3, 6), (11, 8, 13, 3, 3, 3),
             (20, 14, 13, 3, 3, 6), (17, 12, 13, 3, 3, 5)),
    (5, 5): ((40, 30, 19, 4, 4, 10), (26, 20, 19, 4, 4, 6),
             (40, 30, 19, 4, 4, 10), (25, 18, 19, 4, 4, 7)),
    (5, 6): ((70, 55, 26, 5, 5, 15), (50, 40, 26, 5, 5, 10),
             (70, 55, 28, 5, 5, 15), (59, 46, 41, 5, 5, 13)),
}


def test_census_slice_item_op_counts_are_pinned():
    got = {}
    for cell, A in _census_slice():
        with counting(A.ring) as counts:
            divisor_type(A)
        assert set(counts) <= set(_CENSUS_SLICE_OP_KEYS), counts
        got.setdefault(cell, []).append(tuple(counts[k] for k in _CENSUS_SLICE_OP_KEYS))
    assert {key: tuple(items) for key, items in got.items()} == _CENSUS_SLICE_OP_COUNTS
