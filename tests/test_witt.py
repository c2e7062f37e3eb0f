import itertools
import json
import pickle
import random

import pytest

from wittlat import witt
from wittlat.errors import CodecUnsupportedError, NotAUnitError, RingMismatchError
from wittlat.field import default_modulus
from wittlat.witt import elem_from_obj, elem_to_obj, witt_ring

# (p, m, N) parameter matrix shared by the property tests
PARAMS = [(2, 1, 3), (3, 1, 3), (5, 1, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2)]


def test_add_carry_binary():
    # 1 + 1 = p: digits (1,0) + (1,0) -> (0,1) in W_2(F_2)
    R = witt_ring(2, 2)
    a = R.from_digits([(1,), (0,)])
    assert (a + a).digits() == ((0,), (1,))


def test_add_teichmuller_cancellation_mod_25():
    # xi(2) = 7 and xi(3) = 18 in Z/25; they sum to zero
    R = witt_ring(5, 2)
    assert R.teichmuller((2,)).to_int() == 7
    assert R.teichmuller((3,)).to_int() == 18
    a = R.from_digits([(2,), (0,)])
    b = R.from_digits([(3,), (0,)])
    assert (a + b).is_zero()
    assert (a + b).digits() == ((0,), (0,))


def test_additive_identity():
    R = witt_ring(3, 3)
    rng = random.Random(0)
    for _ in range(50):
        x = R.random(rng)
        assert x + R.zero == x


def test_mul_examples():
    R = witt_ring(2, 2)
    p = R.from_int(2)
    assert (p * p).is_zero()  # p^2 = 0 when N = 2
    R8 = witt_ring(2, 3)
    assert (R8.from_int(3) * R8.from_int(5)).to_int() == 7
    rng = random.Random(1)
    for _ in range(50):
        x = R8.random(rng)
        assert x * R8.one == x


def test_inverse_examples():
    R = witt_ring(2, 3)
    assert R.one.inverse() == R.one
    assert R.from_int(3).inverse().to_int() == 3  # 3*3 = 9 = 1 mod 8
    with pytest.raises(NotAUnitError):
        R.from_int(2).inverse()
    # inv(xi(t)) = xi(t^{-1})
    for p, m, N in PARAMS:
        Rx = witt_ring(p, N, m)
        F = Rx.field
        rng = random.Random(2)
        for _ in range(20):
            t = F.random_nonzero(rng)
            assert Rx.teichmuller(t).inverse() == Rx.teichmuller(F.inv(t))


def test_teichmuller_basics():
    R = witt_ring(5, 2)
    assert R.teichmuller((1,)) == R.one
    assert R.teichmuller((0,)) == R.zero
    # the unique x with x^5 = x and x = 2 mod 5
    x = R.teichmuller((2,)).to_int()
    assert pow(x, 5, 25) == x and x % 5 == 2 and x == 7
    # digits of a Teichmueller element are (a, 0, ..., 0)
    for p, m, N in PARAMS:
        Rx = witt_ring(p, N, m)
        rng = random.Random(3)
        a = Rx.field.random(rng)
        want = (a,) + (Rx.field.zero,) * (N - 1)
        assert Rx.teichmuller(a).digits() == want


def test_teichmuller_multiplicative():
    for p, m, N in PARAMS:
        R = witt_ring(p, N, m)
        F = R.field
        rng = random.Random(4)
        for _ in range(40):
            a, b = F.random(rng), F.random(rng)
            assert R.teichmuller(F.mul(a, b)) == R.teichmuller(a) * R.teichmuller(b)
            assert R.teichmuller(a).residue() == a


# the norm inverse and the graded Teichmueller lifts, over the extension grid
EXT_GRID = [(p, m) for p in (2, 3, 5) for m in (2, 3, 4)]


@pytest.mark.parametrize("p,m", EXT_GRID)
def test_norm_inverse(p, m):
    for N in range(1, 8):
        R = witt_ring(p, N, m)
        rng = random.Random(20 + N)
        for _ in range(15):
            u = R.random_unit(rng)
            assert u * u.inverse() == R.one
            with pytest.raises(NotAUnitError):
                R.random_multiple_of_p(rng).inverse()


@pytest.mark.parametrize("p,m", EXT_GRID)
def test_teichmuller_is_fixed_by_q_power(p, m):
    for N in range(1, 8):
        R = witt_ring(p, N, m)
        rng = random.Random(21 + N)
        for _ in range(8):
            a = R.field.random(rng)
            t = R.teichmuller(a)
            assert t ** R.field.q == t and t.residue() == a


def _full_lift(R, b):
    # xi(b) at full precision p^N, from WittElem powers alone
    return R.from_coeffs(b) ** (R.field.q ** (R.N - 1))


@pytest.mark.parametrize("p,m", [(p, m) for p in (2, 3, 5) for m in (1, 2, 3, 4)])
def test_teichmuller_lift_matches_q_power_reference(p, m):
    # the memo entry sigma^-(N-1)(a^(p^(N-1))) against a^(q^(N-1)), for every
    # residue when q <= 125; the memo holds at most one entry per residue
    for N in range(1, 8):
        R = witt_ring(p, N, m)
        F = R.field
        rng = random.Random(23 + N)
        residues = list(F.elements()) if F.q <= 125 else [F.random(rng) for _ in range(6)]
        for a in residues:
            full = _full_lift(R, a)
            assert R._teich_entry(a)[0] == full.coeffs
            assert R.teichmuller(a) == full
        for _ in range(20):
            x = R.random(rng)
            assert R.from_digits(x.digits()) == x
        assert len(R._teich) <= F.q
        if F.q <= 125:
            assert len(R._teich) == F.q


def _reference_teichmuller_digits(x):
    R = x.ring
    out = []
    for _ in range(R.N):
        b = x.residue()
        x = x - _full_lift(R, b)
        x = R.from_coeffs([c // R.p for c in x.coeffs])
        out.append(b)
    return tuple(out)


def _reference_from_digits(R, digits):
    # sum_i xi(a_i^(p^-i)) p^i, with p^-i read as p^(mN - i) on F_{p^m}
    F, acc = R.field, R.zero
    for i, a in enumerate(digits):
        b = F.pow(a, R.p ** (R.m * R.N - i))
        acc = acc + _full_lift(R, b) * R.from_int(R.p ** i)
    return acc


@pytest.mark.parametrize("p,m", [(p, m) for p in (2, 3, 5) for m in (1, 2, 3, 4)])
def test_digit_codecs_match_full_precision_reference(p, m):
    for N in range(1, 8):
        R = witt_ring(p, N, m)
        F = R.field
        rng = random.Random(22 + N)
        for _ in range(10):
            x = R.random(rng)
            tdig = _reference_teichmuller_digits(x)
            assert x.teichmuller_digits() == tdig
            assert x.digits() == tuple(F.pow(b, p ** i) for i, b in enumerate(tdig))
            digits = [F.random(rng) for _ in range(N)]
            assert R.from_digits(digits) == _reference_from_digits(R, digits)


def test_divider():
    for p, m, N in PARAMS:
        R = witt_ring(p, N, m)
        rng = random.Random(12)
        for _ in range(20):
            b = R.random(rng) * R.p_power(rng.randrange(N))
            if b.is_zero():
                with pytest.raises(ZeroDivisionError):
                    R.divider(b)
                continue
            divide, v = R.divider(b), b.valuation()
            for _ in range(5):
                a = R.random(rng) * R.p_power(v)
                assert divide(a) * b == a
            if v:
                # the valuation guard holds for every entry, not once per divisor
                with pytest.raises(ValueError):
                    divide(R.one)
    # a unit divisor is one product with its inverse, defined for every a
    for p, m in itertools.product((2, 3, 5), (1, 2, 3)):
        R = witt_ring(p, 3 if p < 5 else 2, m)
        rng = random.Random(13 + 10 * p + m)
        for _ in range(10):
            b = R.random_unit(rng)
            divide, b_inv = R.divider(b), b.inverse()
            nonunit = R.random(rng) * R.p_power(rng.randrange(1, R.N + 1))
            for a in (R.random(rng), R.zero, nonunit):
                assert divide(a) * b == a and divide(a) == a * b_inv, (b, a)


def test_valuation_examples():
    R = witt_ring(5, 3)
    assert R.from_digits([(0,), (0,), (3,)]).valuation() == 2
    assert R.zero.valuation() == 3
    assert R.one.valuation() == 0


def test_valuation_rules():
    for p, m, N in PARAMS:
        R = witt_ring(p, N, m)
        rng = random.Random(5)
        for _ in range(200):
            a, b = R.random(rng), R.random(rng)
            va, vb = a.valuation(), b.valuation()
            assert (a * b).valuation() == min(N, va + vb)
            assert (a + b).valuation() >= min(va, vb)
            if va != vb:
                assert (a + b).valuation() == min(va, vb)


@pytest.mark.parametrize("p,m,N", [(2, 2, 5), (3, 2, 3), (5, 2, 2), (2, 3, 4), (3, 4, 2)])
def test_valuation_is_least_coefficient_valuation(p, m, N):
    R = witt_ring(p, N, m)
    pN = R.pN

    def v(c):  # per coefficient; the zero coefficient counts as N
        return N if c == 0 else next(k for k in range(N) if c % p ** (k + 1))

    rng = random.Random(p * 10 + m)
    vals = [(0,) * m, (1,) + (0,) * (m - 1), (0,) * (m - 1) + (p ** (N - 1),)]
    for _ in range(200):
        # coefficients of independent valuations, zero included
        vals.append(tuple(p ** rng.randrange(N + 1) * rng.randrange(pN) % pN
                          for _ in range(m)))
    for a in vals:
        assert R.from_coeffs(a).valuation() == min(v(c) for c in a), a


def test_verschiebung_and_frobenius():
    for p, m, N in PARAMS:
        R = witt_ring(p, N, m)
        rng = random.Random(6)
        assert R.zero.verschiebung() == R.zero
        pe = R.from_int(p)
        for _ in range(60):
            x = R.random(rng)
            assert x.verschiebung().digits() == (R.field.zero,) + x.digits()[:-1]
            assert x.verschiebung().frobenius() == pe * x
            # Frobenius raises digits to the p-th power and has order m
            fd = tuple(R.field.pow(d, p) for d in x.digits())
            assert x.frobenius().digits() == fd
            y = x
            for _ in range(m):
                y = y.frobenius()
            assert y == x


def test_frobenius_is_ring_hom():
    R = witt_ring(3, 2, m=2)
    rng = random.Random(7)
    for _ in range(100):
        a, b = R.random(rng), R.random(rng)
        assert (a + b).frobenius() == a.frobenius() + b.frobenius()
        assert (a * b).frobenius() == a.frobenius() * b.frobenius()


def test_digit_codec_m1():
    R = witt_ring(2, 3)
    assert R.from_int(2).digits() == ((0,), (1,), (0,))
    assert R.from_int(0).digits() == ((0,), (0,), (0,))
    for k in range(8):  # round-trip identity on all of Z/8
        e = R.from_int(k)
        assert e.to_int() == k
        assert R.from_digits(e.digits()) == e
    R2 = witt_ring(2, 3, m=2)
    with pytest.raises(CodecUnsupportedError):
        R2.random(random.Random(0)).to_int()


def test_digit_roundtrip_extension():
    for p, m, N in PARAMS:
        R = witt_ring(p, N, m)
        rng = random.Random(8)
        for _ in range(80):
            x = R.random(rng)
            assert R.from_digits(x.digits()) == x
        # digit map is injective on a sample of distinct elements
        seen = {}
        for _ in range(80):
            x = R.random(rng)
            d = x.digits()
            if d in seen:
                assert seen[d] == x
            seen[d] = x


def test_ring_axioms():
    for p, m, N in PARAMS:
        R = witt_ring(p, N, m)
        rng = random.Random(9)
        for _ in range(150):
            a, b, c = R.random(rng), R.random(rng), R.random(rng)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == R.zero
            assert a - b == a + (-b)


def test_integer_oracle_exhaustive():
    # W_N(F_p) = Z/p^N under the codec, exhaustively for small sizes
    for p, N in [(2, 3), (3, 2), (5, 2)]:
        R = witt_ring(p, N)
        pN = p ** N
        els = [R.from_int(k) for k in range(pN)]
        for i in range(pN):
            for j in range(pN):
                assert (els[i] + els[j]).to_int() == (i + j) % pN
                assert (els[i] * els[j]).to_int() == (i * j) % pN


def test_unit_iff_first_digit_nonzero():
    for p, m, N in PARAMS:
        R = witt_ring(p, N, m)
        rng = random.Random(10)
        for _ in range(100):
            x = R.random(rng)
            assert x.is_unit() == any(x.digits()[0])
            assert x.is_unit() == (x.valuation() == 0)


def test_ring_mismatch():
    a = witt_ring(2, 3).one
    b = witt_ring(2, 4).one
    with pytest.raises(RingMismatchError):
        a + b
    with pytest.raises(RingMismatchError):
        a * b


def test_pow():
    R = witt_ring(3, 3)
    x = R.from_int(5)
    assert (x ** 4).to_int() == pow(5, 4, 27)
    assert (x ** 0) == R.one
    assert (x ** -1) == x.inverse()


def test_json_roundtrip():
    for p, m, N in PARAMS:
        R = witt_ring(p, N, m)
        rng = random.Random(11)
        for _ in range(40):
            x = R.random(rng)
            obj = elem_to_obj(x)
            # bit-exact through a JSON string
            assert elem_from_obj(json.loads(json.dumps(obj))) == x
    obj = elem_to_obj(witt_ring(2, 3).from_int(5))
    assert obj == {"p": 2, "m": 1, "N": 3, "digits": [[1], [0], [1]]}


def test_json_malformed():
    with pytest.raises(ValueError):
        elem_from_obj({"p": 2, "m": 1, "N": 3, "digits": [[1], [0]]})
    with pytest.raises(ValueError):
        elem_from_obj({"p": 2, "m": 1, "N": 2, "digits": [[2], [0]]})


def _teichmuller_digits_reduced(x):
    # the loop the exact-quotient version replaced: reduce mod p^k, then // p
    R = x.ring
    p, z, out = R.p, x.coeffs, []
    for k in range(R.N, 0, -1):
        b, pk = tuple(c % p for c in z), p ** k
        z = tuple((c - t) % pk // p for c, t in zip(z, R._teich_entry(b)[0]))
        out.append(b)
    return tuple(out)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2)])
def test_teichmuller_digits_exhaustive_against_reduced_loop(p, m):
    R = witt_ring(p, 3, m)
    for coeffs in itertools.product(range(R.pN), repeat=m):
        x = R.from_coeffs(coeffs)
        assert x.teichmuller_digits() == _teichmuller_digits_reduced(x), coeffs


def test_explicit_default_modulus_is_the_shared_ring():
    R = witt_ring(3, 4, 2)
    size = len(witt._RING_CACHE)
    for modulus in (R.field.modulus, list(R.field.modulus)):
        S = witt_ring(3, 4, 2, modulus)
        assert S is R and pickle.loads(pickle.dumps(S)) is R
    assert len(witt._RING_CACHE) == size
    # first built through the explicit default, then asked for by default
    key = (7, 6, 2, None)
    size -= key in witt._RING_CACHE
    T = witt_ring(7, 6, 2, default_modulus(7, 2))
    assert witt._RING_CACHE[key] is T and witt_ring(7, 6, 2) is T
    assert len(witt._RING_CACHE) == size + 1
    with pytest.raises(ValueError):
        witt_ring(4, 2, 2, (1, 1, 1))  # p is validated before the default is sought


# -- digit tables and exact-stream draws -------------------------------------------

# (p, m, N) with q^N <= 4096, m = 1..3
SMALL_RINGS = [(p, m, N) for p in (2, 3, 5, 7) for m in (1, 2, 3)
               for N in range(1, 13) if p ** (m * N) <= 4096]


@pytest.mark.parametrize("p,m,N", SMALL_RINGS)
def test_digits_roundtrip_every_element(p, m, N):
    R = witt_ring(p, N, m)
    for coeffs in itertools.product(range(R.pN), repeat=m):
        x = R.from_coeffs(coeffs)
        assert R.from_digits(x.digits()) == x, coeffs
    # one table row per residue: at most q entries each
    assert len(R._teich) <= R.field.q and len(R._digit_rows) <= R.field.q


@pytest.mark.parametrize("p,m,N", SMALL_RINGS)
def test_bare_protocol_on_every_element(p, m, N):
    # _val is the index of the first nonzero Witt digit, _inv(u) * u == one
    # for every unit u, and _divider(b) divides every a with v(a) >= v(b),
    # raises ValueError below that and ZeroDivisionError for b == 0
    R = witt_ring(p, N, m)
    elems = [c[0] if m == 1 else c for c in itertools.product(range(R.pN), repeat=m)]
    val = {}
    for b in elems:
        digits = R.from_coeffs((b,) if m == 1 else b).digits()
        val[b] = next((i for i, d in enumerate(digits) if any(d)), N)
        assert R._val(b) == val[b], b
        if val[b] == 0:
            assert R._mul(R._inv(b), b) == R._one, b
    rng = random.Random(100 * p + 10 * m + N)
    for b in elems:
        v = val[b]
        if v == N:
            with pytest.raises(ZeroDivisionError, match="^division by zero in W_N$"):
                R._divider(b)
            continue
        divide, w = R._divider(b)
        pv = p ** v
        assert R._mul(w, b // pv if m == 1 else tuple(c // pv for c in b)) == R._one, b
        if len(elems) <= 81:
            pool = elems
        else:
            pool = rng.sample(elems, 6) + [R._mul(b, t) for t in rng.sample(elems, 3)]
        for a in pool:
            if val[a] >= v:
                assert R._mul(divide(a), b) == a, (b, a)
            else:
                with pytest.raises(ValueError, match="^exact division requires"):
                    divide(a)


def _inverse_and_divider_cases():
    out = []
    for p, N, m in ((2, 3, 1), (3, 2, 2), (2, 2, 3)):
        R, S = witt_ring(p, N, m), witt_ring(5, 2, 1 if m > 1 else 2)
        u = R.teichmuller((1,) + (0,) * (m - 1)) + R.p_power(1)
        out += [
            (R, "inverse", (R.zero,)),
            (R, "inverse", (R.p_power(1),)),
            (R, "inverse", (R.p_power(1) * u,)),
            (R, "divider", (R.zero,)),
            (R, "divider", (R.p_power(N),)),
            (R, "divide", (R.p_power(1), R.one)),
            (R, "divide", (R.p_power(1) * u, u)),
            (R, "divide", (R.p_power(N - 1), R.p_power(N - 2))),
            (R, "divide", (u, 5)),
            (R, "divide", (u, None)),
            (R, "divide", (u, S.one)),
        ]
    return out


_NOT_LOW = ("ValueError", "exact division requires valuation(a) >= valuation(b)")
_DIV0 = ("ZeroDivisionError", "division by zero in W_N")


def _recorded_outcomes(p, N, m, head, other):
    return [("NotAUnitError", f"W({head[0]}) is not a unit"),
            ("NotAUnitError", f"W({head[1]}) is not a unit"),
            ("NotAUnitError", f"W({head[2]}) is not a unit"),
            _DIV0, _DIV0, _NOT_LOW, _NOT_LOW, _NOT_LOW,
            ("TypeError", "cannot combine WittElem with int"),
            ("TypeError", "cannot combine WittElem with NoneType"),
            ("RingMismatchError",
             f"ring mismatch: WittRing(p={p}, m={m}, N={N}) vs WittRing(p=5, m={other}, N=2)")]


# recorded before WittElem.inverse and WittRing.divider became wrappers
# over the ring's bare-value _inv and _divider
_INVERSE_AND_DIVIDER_OUTCOMES = (
    _recorded_outcomes(2, 3, 1, ("0 mod 2^3", "2 mod 2^3", "6 mod 2^3"), 2)
    + _recorded_outcomes(3, 2, 2, ("[0, 0] mod 3^2, m=2", "[3, 0] mod 3^2, m=2",
                                 "[3, 0] mod 3^2, m=2"), 1)
    + _recorded_outcomes(2, 2, 3, ("[0, 0, 0] mod 2^2, m=3", "[2, 0, 0] mod 2^2, m=3",
                                 "[2, 0, 0] mod 2^2, m=3"), 1))


def test_inverse_and_divider_errors_match_the_recorded_ones():
    got = []
    for R, op, args in _inverse_and_divider_cases():
        try:
            if op == "inverse":
                args[0].inverse()
            elif op == "divider":
                R.divider(args[0])
            else:
                R.divider(args[0])(args[1])
            got.append(("ok",))
        except Exception as exc:  # the type and message are what is compared
            got.append((type(exc).__name__, str(exc)))
    assert got == _INVERSE_AND_DIVIDER_OUTCOMES


def test_non_unit_divider_checks_its_argument_like_the_unit_divider():
    # a non-unit divisor's map reads only bare values, so it checks a first
    R, S = witt_ring(2, 3), witt_ring(5, 2, 2)
    divide = R.divider(R.p_power(1))
    with pytest.raises(TypeError, match="cannot combine WittElem with int"):
        divide(5)
    for a in (S.one, S.zero):
        with pytest.raises(RingMismatchError):
            divide(a)


def _codec_cases():
    R1, R2 = witt_ring(3, 3), witt_ring(2, 3, 2)
    return [
        (R1, "from_digits", [(1,), (2,)]),            # too short
        (R1, "from_digits", [(1,)] * 4),              # too long
        (R1, "from_digits", [(3,), (0,), (0,)]),      # out of range
        (R1, "from_digits", [(-1,), (0,), (0,)]),
        (R1, "from_digits", [(1, 0), (0,), (0,)]),    # too many coefficients
        (R1, "from_digits", [1.5, (0,), (0,)]),
        (R1, "from_digits", [None, (0,), (0,)]),
        (R1, "from_digits", [("a",), (0,), (0,)]),
        (R1, "from_digits", 5),
        (R1, "from_digits", [(1,), (3,)]),            # a bad digit before the length
        (R1, "from_digits", [(1,), (2,), (9,), (1, 1)]),
        (R1, "from_digits", [2, [1], (True,)]),       # not canonical, but valid
        (R1, "from_digits", [(2.0,), (1,), (0,)]),
        (R2, "from_digits", [(1, 0), (1, 1)]),
        (R2, "from_digits", [(1, 0), (1, 2), (0, 0)]),
        (R2, "from_digits", [(1,), (1, 1), (0, 0)]),
        (R2, "from_digits", [(1, 0, 0), (1, 1), (0, 0)]),
        (R2, "from_digits", [([1], 0), (1, 1), (0, 0)]),
        (R2, "from_digits", [(None, 0), (1, 1), (0, 0)]),
        (R2, "from_digits", [1, (1, 1), (0, 0)]),     # an int k reads as (k, 0)
        (R2, "from_digits", [[1, 1], (True, False), (1.0, 1)]),
        (R2, "from_digits", [(1, 1), (0, 1), (9, 9), (0, 0)]),
        (R1, "teichmuller", (3,)),
        (R1, "teichmuller", 2),
        (R1, "teichmuller", [2]),
        (R2, "teichmuller", (1, 2)),
        (R2, "teichmuller", (1,)),
        (R2, "teichmuller", [1, 1]),
        (R2, "teichmuller", (True, 1)),
        (R2, "teichmuller", ([1], 0)),
        (R2, "teichmuller", None),
    ]


_NOT_INT = "int() argument must be a string, a bytes-like object or a real number, not"
# recorded with the codecs that validated every digit through FieldDescriptor.elem
_CODEC_OUTCOMES = [
    ("ValueError", "expected 3 digits"),
    ("ValueError", "expected 3 digits"),
    ("ValueError", "coefficients must lie in [0, 3)"),
    ("ValueError", "coefficients must lie in [0, 3)"),
    ("ValueError", "expected 1 coefficients"),
    ("TypeError", "'float' object is not iterable"),
    ("TypeError", "'NoneType' object is not iterable"),
    ("ValueError", "invalid literal for int() with base 10: 'a'"),
    ("TypeError", "'int' object is not iterable"),
    ("ValueError", "coefficients must lie in [0, 3)"),
    ("ValueError", "coefficients must lie in [0, 3)"),
    ("ok", (11,)),
    ("ok", (2,)),
    ("ValueError", "expected 3 digits"),
    ("ValueError", "coefficients must lie in [0, 2)"),
    ("ValueError", "expected 2 coefficients"),
    ("ValueError", "expected 2 coefficients"),
    ("TypeError", f"{_NOT_INT} 'list'"),
    ("TypeError", f"{_NOT_INT} 'NoneType'"),
    ("ok", (1, 2)),
    ("ok", (5, 3)),
    ("ValueError", "coefficients must lie in [0, 2)"),
    ("ValueError", "coefficients must lie in [0, 3)"),
    ("ok", (26,)),
    ("ok", (26,)),
    ("ValueError", "coefficients must lie in [0, 2)"),
    ("ValueError", "expected 2 coefficients"),
    ("ok", (7, 7)),
    ("ok", (7, 7)),
    ("TypeError", f"{_NOT_INT} 'list'"),
    ("TypeError", "'NoneType' object is not iterable"),
]


def _codec_outcome(R, name, arg):
    try:
        return "ok", getattr(R, name)(arg).coeffs
    except Exception as exc:  # the type and message are what is compared
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("warm", [False, True])
def test_codec_errors_match_on_cold_and_warm_tables(warm):
    # malformed digits raise what FieldDescriptor.elem raises, first bad digit
    # first and the length after; valid non-canonical digits keep their value
    cases = _codec_cases()
    for R in {id(R): R for R, _, _ in cases}.values():
        R._teich.clear()
        R._digit_rows.clear()
        if warm:
            for a in R.field.elements():
                R.from_digits([a] * R.N)
                R.teichmuller(a)
    assert [_codec_outcome(*c) for c in cases] == _CODEC_OUTCOMES
    if warm:  # the canonical lookups filled nothing beyond the residues
        assert all(len(R._digit_rows) == R.field.q for R, _, _ in cases)


class _Sub(random.Random):
    pass


class _OwnRandrange(random.Random):
    calls = 0

    def randrange(self, *args, **kwargs):
        self.calls += 1
        return super().randrange(*args, **kwargs)


class _OwnRandom(random.Random):
    # overriding random() alone makes _randbelow the getrandbits-free rule
    def random(self):
        return super().random()


# every p^N of the rings in the tests, and bound 1
MODULI = sorted({1} | {p ** N for p in (2, 3, 5, 7) for N in range(1, 17)})


@pytest.mark.parametrize("cls", [random.Random, _Sub, _OwnRandrange, _OwnRandom])
def test_draw_below_matches_randrange_stream(cls):
    for bound in MODULI:
        for seed in range(4):
            fast, ref = cls(seed), cls(seed)
            assert witt._draw_below(fast, bound, 16) == [ref.randrange(bound) for _ in range(16)]
            assert fast.getstate() == ref.getstate()
    if cls is _OwnRandrange:  # the override is called once per draw
        rng = cls(0)
        witt._draw_below(rng, 8, 5)
        assert rng.calls == 5
