"""The generated kernels against the schoolbook reference.

`_reduce_mod` and `_mulmod` below are the generic loops the kernels
replaced: they fold the high coefficients of a product one at a time,
reducing as they go, so they share no code or evaluation order with the
straight-line kernels.  `_sigma_loop` is the loop the sigma^j maps replaced.
"""

import linecache
import os
import pickle
import random
import subprocess
import sys
import time
import traceback
from pathlib import Path

import pytest
from counting import compiles

from wittlat import field, witt
from wittlat.field import FieldDescriptor
from wittlat.matrix import GroupShape, WittMat
from wittlat.strata import sample_group
from wittlat.witt import WittRing, witt_ring

ROOT = Path(__file__).resolve().parent.parent


def _reduce_mod(out, f, mod):
    """The residue of a coefficient list of length 2m - 1 (consumed)."""
    m = len(f) - 1
    for k in range(len(out) - 1, m - 1, -1):
        c = out[k] % mod
        if c:
            base = k - m
            for j in range(m):
                out[base + j] -= c * f[j]
    return tuple([c % mod for c in out[:m]])


def _mulmod(a, b, f, mod):
    out = [0] * (2 * len(a) - 1)
    for i, ai in enumerate(a):
        if ai:
            for k, bj in enumerate(b, i):
                out[k] += ai * bj
    return _reduce_mod(out, f, mod)


def _powmod(a, e, f, mod):
    result = (1,) + (0,) * (len(a) - 1)
    for bit in bin(e)[2:]:
        result = _mulmod(result, result, f, mod)
        if bit == "1":
            result = _mulmod(result, a, f, mod)
    return result


def _sigma_loop(coeffs, images, mod):
    """sum_k coeffs[k] * images[k] mod `mod`, reducing after every term."""
    m = len(coeffs)
    out = [0] * m
    for k, c in enumerate(coeffs):
        if c:
            img = images[k]
            for i in range(m):
                out[i] = (out[i] + c * img[i]) % mod
    return tuple(out)


def _inputs(rng, m, mod, p):
    """Random, zero, unit, p-multiple and all-(mod - 1) coefficient tuples;
    the last gives the largest unreduced sums."""
    out = [(0,) * m, (1,) + (0,) * (m - 1), (mod - 1,) * m]
    out += [tuple(rng.randrange(mod) for _ in range(m)) for _ in range(4)]
    out.append(tuple(p * rng.randrange(mod) % mod for _ in range(m)))
    return out


GRID = [(p, m, N) for p in (2, 3, 5) for m in (2, 3, 4, 5) for N in range(1, 8)]


@pytest.mark.parametrize("p,m,N", GRID)
def test_ring_kernels_match_schoolbook(p, m, N):
    R = witt_ring(p, N, m)
    phi, pN = R.phi, R.pN
    rng = random.Random(p * 100 + m * 10 + N)
    vals = _inputs(rng, m, pN, p)
    # the unit group of W_N(F_q) has order (q - 1) q^(N-1)
    order = (R.field.q - 1) * R.field.q ** (N - 1)
    for a in vals:
        x = R.from_coeffs(a)
        for b in vals:
            assert (x * R.from_coeffs(b)).coeffs == _mulmod(a, b, phi, pN)
            assert (x + R.from_coeffs(b)).coeffs == tuple((s + t) % pN for s, t in zip(a, b))
            assert (x - R.from_coeffs(b)).coeffs == tuple((s - t) % pN for s, t in zip(a, b))
        e = rng.randrange(2 * order)
        assert (x ** e).coeffs == _powmod(a, e, phi, pN)
        if x.is_unit():
            assert x.inverse().coeffs == _powmod(a, order - 1, phi, pN)
            assert (x ** -3).coeffs == _powmod(a, 3 * order - 3, phi, pN)
    rows = [vals[:3], vals[3:6], [vals[6], vals[7], vals[2]]]
    A = WittMat(R, [[R.from_coeffs(c) for c in r] for r in rows])
    B = A.transpose()
    want = []
    for ra in rows:
        row = []
        for cb in rows:  # the columns of B = A^T are the rows of A
            acc = [0] * m
            for x, y in zip(ra, cb):
                acc = [s + t for s, t in zip(acc, _mulmod(x, y, phi, pN))]
            row.append(tuple(s % pN for s in acc))
        want.append(row)
    assert [[e.coeffs for e in r] for r in (A * B).rows] == want


@pytest.mark.parametrize("p,m", [(p, m) for p in (2, 3, 5) for m in (2, 3, 4, 5)])
def test_sigma_kernels_match_loop(p, m):
    gen = (0, 1) + (0,) * (m - 2)
    for N in range(1, 8):
        R = witt_ring(p, N, m)
        phi, pN = R.phi, R.pN
        vals = _inputs(random.Random(p * 100 + m * 10 + N), m, pN, p)
        residues = [tuple(c % p for c in a) for a in vals]
        for j in range(m):
            # sigma^j(x^k) = x^(k p^j): the images from schoolbook powers
            images = [_powmod(gen, k * p ** j, phi, pN) for k in range(m)]
            for a in vals + residues:
                want = _sigma_loop(a, images, pN)
                assert R._sigma_N[j](a) == R._sigma_N[j - m](a) == want
                assert R._sigma_p[j](a) == _sigma_loop(a, images, p)
                x = R.from_coeffs(a)
                if j == 1:
                    assert x.frobenius().coeffs == want
                if j == m - 1:  # sigma^-1
                    assert x.verschiebung().coeffs == _sigma_loop(
                        [p * c for c in a], images, pN)


@pytest.mark.parametrize("p,m", [(p, m) for p in (2, 3, 5) for m in (2, 3, 4, 5)])
def test_field_kernels_match_schoolbook(p, m):
    F = FieldDescriptor(p, m)
    f, q = F.modulus, F.q
    vals = _inputs(random.Random(p * 10 + m), m, p, p)
    for a in vals:
        for b in vals:
            assert F.mul(a, b) == _mulmod(a, b, f, p)
        for e in (0, 1, 2, p, q - 1, q + 5, 3 * q - 2):
            assert F.pow(a, e) == _powmod(a, e, f, p)
        if any(a):
            assert F.inv(a) == _powmod(a, q - 2, f, p)
            assert F.pow(a, -2) == _powmod(a, 2 * q - 4, f, p)


def test_factory_compiles_once_per_degree(monkeypatch):
    compiled = compiles(monkeypatch)
    field._mulmod_factory.cache_clear()
    field._matrix_factory.cache_clear()
    witt._codec_factory.cache_clear()
    rng = random.Random(9)
    for p, N in ((2, 1), (2, 4), (3, 2), (5, 3)):
        R = WittRing(p, N, 3)
        x = R.random_unit(rng)
        x.inverse(), x.frobenius(), x.verschiebung(), R.from_digits(x.digits())
        # the sigma^j maps and sub are closures of the one compiled source
        kernels = (R._mul, R._sub) + R._sigma_p + R._sigma_N
        assert {f.__code__.co_filename for f in kernels} == {"<mulmod m=3>"}
    # and from_digits compiles one digit codec per (m, N)
    want = ["<mulmod m=3>"] + [f"<codec m=3 N={N}>" for N in (1, 4, 2, 3)]
    FieldDescriptor(7, 3)
    assert compiled == want
    WittRing(2, 3, 2)
    want.append("<mulmod m=2>")
    assert compiled == want
    # the matrix kernels: nothing at ring construction, then one compile per
    # (m, n), shared by every ring of degree m and by products, dets and minors
    rings = [WittRing(p, N, m) for m in (1, 2, 3) for p, N in ((2, 3), (3, 2))]
    assert compiled == want
    for _ in range(2):
        for R in rings:
            for n in range(1, 7):
                A = sample_group(R, n, GroupShape.FULL, rng)
                A * A, A.det(), A.corner_minor() if n > 1 else None
    matrices = sorted(f"<matrix m={m} n={n}>" for m in (1, 2, 3) for n in range(1, 7))
    assert sorted(compiled[len(want):]) == matrices
    assert all(R._matrix_kernels(n)[1] is None for R in rings for n in (5, 6))


def _failing_frame(kernel, *args):
    """The innermost frame of the traceback `kernel(*args)` raises, and the
    traceback as printed."""
    with pytest.raises(Exception) as info:
        kernel(*args)
    return traceback.extract_tb(info.tb)[-1], "".join(traceback.format_tb(info.tb))


def test_generated_frames_show_their_source_lines():
    # each family's source is in linecache, and checkcache keeps it
    R = witt_ring(2, 3, 2)
    matmul, codecs = R._matrix_kernels(2)[0], R._codec()
    linecache.checkcache()
    for frame, text, (filename, line) in [
            (*_failing_frame(R._inv, (2, 0)), ("<mulmod m=2>", "w = pow(n0, -1, mod)")),
            (*_failing_frame(matmul, ((R._one,),), ((R._one,),)),  # a 1 x 1 matrix
             ("<matrix m=2 n=2>", "(((b0_0_0, b0_0_1, ), (b0_1_0, b0_1_1, ), ), ")),
            (*_failing_frame(codecs[0], (1, 2, 3)), ("<codec m=2 N=3>", "z0, z1 = v"))]:
        assert frame.filename == filename and frame.line.startswith(line), frame
        assert f'File "{filename}"' in text and frame.line in text


def test_matrix_kernels_for_m4_n12_generate_in_under_50ms():
    # the largest generated product in the tests; det is generated for n <= 4 only
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        field._matrix_factory.__wrapped__(4, 12)
        times.append(time.perf_counter() - t0)
    assert min(times) < 0.05, times


def test_pickled_rings_rebuild_their_kernels():
    R = witt_ring(3, 4, 2)
    A = WittMat(R, ((R.teichmuller((1, 2)), R.one), (R.zero, R.from_int(5))))
    B = pickle.loads(pickle.dumps(A))
    assert B == A and B.ring == R and B * B == A * A
    F = pickle.loads(pickle.dumps(R.field))
    assert F == R.field and F.mul((1, 2), (2, 2)) == R.field.mul((1, 2), (2, 2))


@pytest.mark.parametrize("m", [1, 2])
def test_unpickled_ring_is_the_shared_instance(m):
    R = witt_ring(3, 4, m)
    size = len(witt._RING_CACHE)
    assert pickle.loads(pickle.dumps(R)) is R
    A = WittMat(R, ((R.one, R.p_power(2)), (R.zero, R.one)))
    assert pickle.loads(pickle.dumps(A)).ring is R
    assert len(witt._RING_CACHE) == size


def test_import_loads_no_pool_and_compiles_no_kernel():
    code = ("import sys, wittlat, wittlat.cli, wittlat.verify\n"
            "from wittlat.field import _matrix_factory, _mulmod_factory\n"
            "from wittlat.witt import _codec_factory\n"
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)), *(f"
            ".cache_info().misses for f in (_mulmod_factory, _matrix_factory, _codec_factory)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "0", "0", "0"]


def _mult_matrix(a, phi, mod):
    """The m x m integer matrix of x -> a*x on the power basis mod (phi, mod)."""
    m = len(a)
    cols = [_mulmod(a, (0,) * j + (1,) + (0,) * (m - 1 - j), phi, mod) for j in range(m)]
    return [[cols[j][i] for j in range(m)] for i in range(m)]


@pytest.mark.parametrize("p,m", [(p, m) for p in (2, 3, 5) for m in (2, 3, 4)])
def test_small_det_kernel_against_restriction_of_scalars(p, m):
    # det(Res A) == N(det A) mod p^N: Res A is the nm x nm integer matrix of A
    # over Z/p^N and the norm N(d) the determinant of x -> d*x; both dets are
    # sympy's over Z, so the oracle shares no code with wittlat's determinants.
    # n <= 4 runs the generated kernel; for m <= 3, n = 5..7 runs _eliminate
    # and so the ring's bare-value divider and norm inverse.  Kind 3 is an
    # orbit x * diag(p^e) * y, e a permutation of (1, 1, 0, ..., 0): once the
    # unit pivots are used, a 2 x 2 block of valuation-1 entries is left and
    # the second-last pivot divides through the divider's v > 0 branch.  As
    # v(N(d)) = m * v(d), the norm sees an error at v(det) = 2 only mod p^N
    # with N > 2m, so kinds 1 and 3 run in W_{2m+3} (N = 3 for the others):
    # at N = 3 a row times p gives N(d) = 0 mod p^3 for every m >= 3
    sympy = pytest.importorskip("sympy")
    rng = random.Random(p * 10 + m)
    seen_row_times_p = 0  # kind-1 cases whose norm is nonzero mod p^N

    def uniform(n, pN):
        return [[tuple(rng.randrange(pN) for _ in range(m)) for _ in range(n)] for _ in range(n)]
    for n in range(1, 8 if m <= 3 else 5):
        for kind in range(4):
            R = witt_ring(p, 2 * m + 3 if kind in (1, 3) else 3, m)
            phi, pN = R.phi, R.pN
            rows = uniform(n, pN)
            if kind == 1:  # a row times p: a non-unit determinant
                i = rng.randrange(n)
                rows[i] = [tuple(p * c % pN for c in e) for e in rows[i]]
            elif kind == 2 and n > 1:  # two equal rows: determinant zero
                rows[0] = rows[-1]
            elif kind == 3:
                exps = [1] * min(n, 2) + [0] * (n - 2)
                rng.shuffle(exps)
                y = [[tuple(p ** e * c % pN for c in a) for a in r] for r, e in zip(rows, exps)]
                rows = [[tuple(sum(t) % pN for t in zip(*[_mulmod(a, b, phi, pN)
                                                          for a, b in zip(r, col)]))
                         for col in zip(*y)] for r in uniform(n, pN)]
            A = WittMat._from_raw(R, tuple(tuple(r) for r in rows))
            blocks = [[_mult_matrix(e, phi, pN) for e in r] for r in rows]
            res = sympy.Matrix(n * m, n * m, lambda i, j: blocks[i // m][j // m][i % m][j % m])
            d = A.det().coeffs
            norm = sympy.Matrix(_mult_matrix(d, phi, pN)).det()
            assert (res.det() - norm) % pN == 0, (p, m, n, kind, rows)
            if kind == 1:
                seen_row_times_p += norm % pN != 0
            if kind == 2 and n > 1:
                assert not any(d)
    assert seen_row_times_p, (p, m)
