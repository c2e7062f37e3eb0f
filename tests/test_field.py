import random

import pytest

from wittlat.field import FieldDescriptor, default_modulus, is_irreducible, is_prime


def test_is_prime_small():
    primes = [n for n in range(40) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


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


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        FieldDescriptor(2, 2, modulus=(0, 0, 1))  # x^2
    with pytest.raises(ValueError):
        FieldDescriptor(3, 2, modulus=(2, 0, 1))  # x^2 - 1 = (x-1)(x+1)
    with pytest.raises(ValueError):
        FieldDescriptor(4, 1)


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


def test_elements_enumeration():
    F = FieldDescriptor(3, 2)
    els = list(F.elements())
    assert len(els) == 9 and len(set(els)) == 9
