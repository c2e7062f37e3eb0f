"""Arithmetic in the finite field F_{p^m}.

Field elements are tuples of m integers in [0, p): little-endian
coefficients with respect to the generator of F_p[x]/(modulus).  For m = 1
the modulus is irrelevant and elements are 1-tuples.
"""

import itertools


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _prime_factors(n):
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


# -- dense polynomials over Z/p, little-endian coefficient lists ------------

def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a, f, p):
    # f monic
    a = list(a)
    df = len(f) - 1
    for k in range(len(a) - 1, df - 1, -1):
        c = a[k]
        if c:
            for j in range(df):
                a[k - df + j] = (a[k - df + j] - c * f[j]) % p
            a[k] = 0
    del a[df:]
    return _ptrim(a)


def _ppowmod(base, e, f, p):
    result = [1]
    acc = _pmod(base, f, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, acc, p), f, p)
        acc = _pmod(_pmul(acc, acc, p), f, p)
        e >>= 1
    return result


def _prem(a, b, p):
    """Remainder of a modulo b (b nonzero), over Z/p."""
    r = _ptrim(list(a))
    db = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    while len(r) > db:
        c = (r[-1] * inv_lead) % p
        shift = len(r) - 1 - db
        for j, bj in enumerate(b):
            r[shift + j] = (r[shift + j] - c * bj) % p
        _ptrim(r)
    return r


def _pgcd(a, b, p):
    a, b = _ptrim(list(a)), _ptrim(list(b))
    while b:
        a, b = b, _prem(a, b, p)
    return a


def is_irreducible(coeffs, p):
    """Test irreducibility of a monic polynomial over Z/p."""
    f = list(coeffs)
    m = len(f) - 1
    if m < 1 or f[-1] != 1:
        return False
    if m == 1:
        return True
    x = [0, 1]
    # x^{p^m} == x mod f
    xq = _ppowmod(x, p ** m, f, p)
    if _ptrim(list(xq)) != x:
        return False
    for ell in _prime_factors(m):
        g = _ppowmod(x, p ** (m // ell), f, p)
        g = list(g) + [0] * (2 - len(g))
        g[1] = (g[1] - 1) % p
        if len(_pgcd(g, f, p)) > 1:
            return False
    return True


def default_modulus(p, m):
    """First monic irreducible of degree m over Z/p, in base-p order."""
    if m == 1:
        return (0, 1)
    for k in range(p ** m):
        coeffs = []
        kk = k
        for _ in range(m):
            coeffs.append(kk % p)
            kk //= p
        f = coeffs + [1]
        if is_irreducible(f, p):
            return tuple(f)
    raise RuntimeError(f"no irreducible polynomial of degree {m} over F_{p}")


# -- fixed-degree residues in (Z/mod)[x]/(f), f monic of degree m ---------
# Shared by F_{p^m} (mod = p, f the field modulus) and by the Witt ring
# (mod = p^k, f the lifted modulus).  Elements are m-tuples, f lists all
# m + 1 coefficients; intermediate sums stay unreduced until the end.

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
    """a^e for e >= 0 and a tuple reduced mod `mod`, with no squaring or
    product by 1 wasted (the short Teichmueller lifts need few steps)."""
    result = None
    while e:
        if e & 1:
            result = a if result is None else _mulmod(result, a, f, mod)
        e >>= 1
        if e:
            a = _mulmod(a, a, f, mod)
    return (1,) + (0,) * (len(a) - 1) if result is None else result


class FieldDescriptor:
    """The finite field F_{p^m} with a fixed irreducible modulus."""

    __slots__ = ("p", "m", "q", "modulus", "key")

    def __init__(self, p, m=1, modulus=None):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if m < 1:
            raise ValueError("extension degree m must be >= 1")
        self.p = p
        self.m = m
        self.q = p ** m
        if m == 1:
            modulus = (0, 1)
        elif modulus is None:
            modulus = default_modulus(p, m)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree m")
            if not is_irreducible(list(modulus), p):
                raise ValueError("modulus is not irreducible over Z/p")
        self.modulus = modulus
        self.key = (p, m, modulus)

    def __eq__(self, other):
        return isinstance(other, FieldDescriptor) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"FieldDescriptor(p={self.p}, m={self.m})"

    # -- elements ----------------------------------------------------------

    @property
    def zero(self):
        return (0,) * self.m

    @property
    def one(self):
        return (1,) + (0,) * (self.m - 1)

    def elem(self, coeffs):
        if isinstance(coeffs, int):
            coeffs = (coeffs,) if self.m == 1 else (coeffs,) + (0,) * (self.m - 1)
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != self.m:
            raise ValueError(f"expected {self.m} coefficients")
        if any(c < 0 or c >= self.p for c in coeffs):
            raise ValueError(f"coefficients must lie in [0, {self.p})")
        return coeffs

    def elements(self):
        """All q elements, in deterministic order."""
        return (t[::-1] for t in itertools.product(range(self.p), repeat=self.m))

    def random(self, rng):
        return tuple(rng.randrange(self.p) for _ in range(self.m))

    def random_nonzero(self, rng):
        while True:
            a = self.random(rng)
            if any(a):
                return a

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def mul(self, a, b):
        if self.m == 1:
            return ((a[0] * b[0]) % self.p,)
        return _mulmod(a, b, self.modulus, self.p)

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.m == 1:
            return (pow(a[0], e, self.p),)
        return _powmod(a, e, self.modulus, self.p)

    def inv(self, a):
        if not any(a):
            raise ZeroDivisionError("inverse of zero field element")
        return self.pow(a, self.q - 2)
