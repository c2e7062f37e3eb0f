import itertools
import random

import pytest
import sympy

from wittlat.field import FieldDescriptor, default_modulus, is_irreducible, is_prime


def test_is_prime_small():
    primes = [n for n in range(40) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    # n is read through operator.index: a float is refused, even an integral one
    for n in (2.5, 3.0):
        with pytest.raises(TypeError):
            is_prime(n)


def test_default_modulus_irreducible():
    for p in (2, 3, 5):
        for m in (2, 3):
            f = default_modulus(p, m)
            assert len(f) == m + 1 and f[-1] == 1
            assert is_irreducible(list(f), p)


def test_known_moduli():
    # x^2 + x + 1 over F_2, x^2 + 1 over F_3, x^2 + 2 over F_5
    assert default_modulus(2, 2) == (1, 1, 1)
    assert default_modulus(3, 2) == (1, 0, 1)
    assert default_modulus(5, 2) == (2, 0, 1)


ORACLE_GRID = [(2, 8), (3, 5), (5, 3), (7, 2)]


def _monic(p, m):
    """Every monic polynomial of degree m over Z/p, little-endian, in base-p
    order of its lower coefficients."""
    return [t[::-1] + (1,) for t in itertools.product(range(p), repeat=m)]


def _sympy_irreducible(f, p):
    return sympy.Poly(f[::-1], sympy.Symbol("x"), modulus=p).is_irreducible


@pytest.mark.parametrize("p,max_m", ORACLE_GRID)
def test_is_irreducible_matches_sympy(p, max_m):
    for m in range(1, max_m + 1):
        for f in _monic(p, m):
            assert is_irreducible(list(f), p) == _sympy_irreducible(f, p), f


def test_reducible_products_of_degree_dividing_m():
    # both factors have degree d | m, so x^(p^m) == x mod f holds and only
    # the step for the prime factors of m can reject them
    for f, p in (([1, 1, 1, 1, 1, 1, 1], 2),  # (x^3+x+1)(x^3+x^2+1) over F_2
                 ([2, 1, 0, 1, 1], 3)):       # (x^2+1)(x^2+x+2) over F_3
        assert not _sympy_irreducible(tuple(f), p)
        assert not is_irreducible(f, p)


@pytest.mark.parametrize("p,max_m", ORACLE_GRID)
def test_default_modulus_is_first_irreducible_candidate(p, max_m):
    for m in range(1, max_m + 1):
        first = next(f for f in _monic(p, m) if _sympy_irreducible(f, p))
        assert default_modulus(p, m) == first


@pytest.mark.parametrize("p,m", [(2, 1), (5, 1), (2, 2), (3, 2), (2, 3)])
def test_field_axioms(p, m):
    F = FieldDescriptor(p, m)
    rng = random.Random(101)
    for _ in range(300):
        a, b, c = F.random(rng), F.random(rng), F.random(rng)
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, F.neg(a)) == F.zero
        assert F.mul(a, F.one) == a


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (2, 3), (5, 1)])
def test_inverse_and_frobenius(p, m):
    F = FieldDescriptor(p, m)
    for a in F.elements():
        # Frobenius is a bijection: x^{p^m} = x
        assert F.pow(a, p ** m) == a
        if any(a):
            assert F.mul(a, F.inv(a)) == F.one
    with pytest.raises(ZeroDivisionError):
        F.inv(F.zero)


def test_elem_validation():
    F = FieldDescriptor(3, 2)
    assert F.elem(2) == (2, 0)
    assert F.elem((1, 2)) == (1, 2)
    with pytest.raises(ValueError):
        F.elem((3, 0))
    with pytest.raises(ValueError):
        F.elem((1, 1, 1))
    # a canonical tuple comes back as it is; anything else is normalised
    # or rejected as before
    t = (1, 2)
    assert F.elem(t) is t
    for raw in ([1, 2], (True, 2), (1.0, 2), (1, 2.0)):
        got = F.elem(raw)
        assert got == (1, 2) and type(got) is tuple
        assert [type(c) for c in got] == [int, int]
    for bad in ((-1, 0), (0, 3), (1,), (1, 2, 0), [3, 0]):
        with pytest.raises(ValueError):
            F.elem(bad)
    # int() would truncate a fraction and parse a string: neither is a coefficient
    for G, bad in ((F, (1.5, 2)), (F, (1, 2.9)), (F, ("1", 2)), (F, [b"1", 2]),
                   (FieldDescriptor(3), (2.9,)), (FieldDescriptor(3), ("1",))):
        with pytest.raises(ValueError, match="coefficients must be integers"):
            G.elem(bad)


def test_descriptor_sub_hash_and_repr():
    F = FieldDescriptor(3, 2)
    assert F.sub((1, 2), (2, 2)) == (2, 0)
    for a, b in itertools.product(F.elements(), repeat=2):
        assert F.add(F.sub(a, b), b) == a
    assert hash(F) == hash(FieldDescriptor(3, 2)) and len({F, FieldDescriptor(3, 2)}) == 1
    assert repr(F) == "FieldDescriptor(p=3, m=2)"


def test_is_irreducible_refuses_non_monic_and_constant_inputs():
    # x^2 + 1 is irreducible over Z/3; scaled by 2 it is not monic
    assert is_irreducible((1, 0, 1), 3)
    assert not is_irreducible((2, 0, 2), 3)
    for const in ((1,), (2,), ()):
        assert not is_irreducible(const, 3)


def test_elements_enumeration():
    F = FieldDescriptor(3, 2)
    els = list(F.elements())
    assert len(els) == 9 and len(set(els)) == 9
