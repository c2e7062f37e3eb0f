"""Truncated Witt vector arithmetic: the ring W_N(F_{p^m}).

Elements are stored as residues in the unramified extension
(Z/p^N)[x]/(Phi), where Phi is the Teichmueller lift of the field modulus
(the unique monic lift dividing x^{p^m} - x mod p^N).  With that modulus
the Frobenius sigma is x -> x^p, a linear map on the power basis; sigma^j
for j = 0..m-1 is bound once per ring as a straight-line map mod p^N and
one mod p, which applies the field Frobenius F^j.  Those maps, products
and differences are the kernels generated once per m in field.py, bound
to Phi mod p^N at construction.  For m > 1 a unit u is inverted through
its norm:
Norm(u) = u * prod_{k=1}^{m-1} sigma^k(u) is a scalar n of Z/p^N, and
u^-1 = n^-1 * prod_{k=1}^{m-1} sigma^k(u).

Each ring memoises, per residue b, the Teichmueller lift xi(b) mod p^N
and the conjugates F^j(b): at most q entries, each filled on first use.
Any lift y of b is xi(b) mod p, so y^(p^(N-1)) = sigma^(N-1)(xi(b)) mod p^N
and xi(b) = sigma^-(N-1)(b^(p^(N-1))).  The digit codecs are then lookups:
the Witt digits a_i = F^i(b_i) of sum_i p^i xi(b_i), and from_digits sums
p^i xi(F^-i(a_i)), since sigma^-i(xi(a)) = xi(F^-i(a)), from a second
table of those N terms per residue.  For m = 1 sigma is the identity and
the whole ring is Z/p^N under the integer codec.
"""

import math
import operator
import random
import threading

from .errors import CodecUnsupportedError, NotAUnitError, RingMismatchError
from .field import FieldDescriptor, _kernels, _matrix_factory, _powmod, default_modulus

_RING_CACHE = {}
_RING_LOCK = threading.Lock()


def witt_ring(p, N, m=1, modulus=None):
    """Shared-instance constructor for W_N(F_{p^m}).

    The cache key has modulus None for the default modulus, given or not.  On
    a miss the ring is built first, so that p and m are validated before the
    default modulus is computed."""
    key = (p, N, m, tuple(modulus) if modulus is not None else None)
    ring = _RING_CACHE.get(key)
    if ring is None and modulus is not None:  # the default, given explicitly?
        ring = _RING_CACHE.get((p, N, m, None))
        if ring is not None and ring.field.modulus != key[3]:
            ring = None
    if ring is None:
        with _RING_LOCK:
            ring = _RING_CACHE.get(key)
            if ring is None:
                ring = WittRing(p, N, m, modulus)
                if modulus is not None and ring.field.modulus == default_modulus(p, m):
                    key = (p, N, m, None)
                ring = _RING_CACHE.setdefault(key, ring)
    return ring


def _valuation(p, N, m):
    """The valuation of bare values mod p^N: the p-adic order of an int for
    m = 1, of the gcd of a coefficient tuple for m > 1; N for zero."""
    def val(c):
        if m > 1:
            c = math.gcd(*c)
        if c == 0:
            return N
        v = 0
        while c % p == 0:
            c //= p
            v += 1
        return v
    return val


def _draw_below(rng, bound, count):
    """[rng.randrange(bound) for _ in range(count)], bound >= 1, with the rule
    of random.Random inline when type(rng) keeps its randrange and _randbelow."""
    if (type(rng).randrange is random.Random.randrange
            and type(rng)._randbelow is random.Random._randbelow_with_getrandbits):
        getrandbits, k, out = rng.getrandbits, bound.bit_length(), []
        for _ in range(count):
            r = getrandbits(k)
            while r >= bound:
                r = getrandbits(k)
            out.append(r)
        return out
    return [rng.randrange(bound) for _ in range(count)]


class WittRing:
    """Descriptor and operation table for W_N(F_{p^m}).

    `_mul`, `_sub`, `_val`, `_inv`, `_divider`, `_one` and `_zero` are the
    ring on bare values: ints mod p^N for m = 1, coefficient tuples (the
    generated kernels) for m > 1.  `_matrix_kernels(n)` binds the n x n
    product and determinant on first use; `_diagonals` is the memo of
    matrix.p_power_diagonal."""

    __slots__ = ("field", "p", "m", "N", "pN", "key", "phi", "_mul", "_sub", "_val", "_inv",
                 "_red", "_matrix", "_diagonals", "_sigma_p", "_sigma_N", "_teich",
                 "_digit_rows", "_p_powers", "zero", "one", "_zero", "_one")

    def __init__(self, p, N, m=1, modulus=None):
        if N < 1:
            raise ValueError("length N must be >= 1")
        self.field = FieldDescriptor(p, m, modulus)
        self.p = p
        self.m = m
        self.N = N
        self.pN = pN = p ** N
        self.key = (p, m, N, self.field.modulus)
        self.phi = self._lift_modulus() if m > 1 else None
        self._mul, self._sub = (lambda a, b: a * b % pN), (lambda a, b: (a - b) % pN)
        self._val, self._inv = _valuation(p, N, m), (lambda u: pow(u, -1, pN))
        self._red, self._sigma_p, self._sigma_N = [], None, None
        if m > 1:
            self._red, self._mul, self._sub, linear = _kernels(self.phi, pN)
            self._inv = self._norm_inverse
            sigma = self._sigma_powers()
            # entry j applies sigma^j, so entry -j applies sigma^-j
            self._sigma_p = tuple(linear(images, p) for images in sigma)
            self._sigma_N = tuple(linear(images, self.pN) for images in sigma)
        self._teich, self._digit_rows, self._matrix, self._diagonals = {}, {}, {}, {}
        self._p_powers = tuple(WittElem._make(self, (p ** e,) + (0,) * (m - 1))
                               for e in range(N))
        self.zero = WittElem._make(self, (0,) * m)
        self.one = self._p_powers[0]
        self._zero, self._one = (0, 1) if m == 1 else (self.zero.coeffs, self.one.coeffs)

    def __eq__(self, other):
        return isinstance(other, WittRing) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __reduce__(self):
        # the kernels are closures: rebuild through the shared-instance cache,
        # under the key the default modulus has there
        modulus = self.field.modulus
        if modulus == default_modulus(self.p, self.m):
            modulus = None
        return witt_ring, (self.p, self.N, self.m, modulus)

    def __repr__(self):
        return f"WittRing(p={self.p}, m={self.m}, N={self.N})"

    # -- modulus lifting -----------------------------------------------------

    def _lift_modulus(self):
        """Phi = prod over the Frobenius orbit of (X - tau), tau the
        Teichmueller lift of the field generator in a scratch quotient."""
        p, m, N, pN = self.p, self.m, self.N, self.pN
        _, mul0, sub0, _ = _kernels(self.field.modulus, pN)  # naive monic lift f0

        gen = (0, 1) + (0,) * (m - 2)
        roots = [_powmod(gen, self.field.q ** (N - 1), mul0)]  # tau
        for _ in range(m - 1):
            roots.append(_powmod(roots[-1], p, mul0))
        # expand prod (X - root) with coefficients in the scratch quotient
        zero0 = (0,) * m
        poly = [(1,) + (0,) * (m - 1)]
        for rt in roots:  # coefficient k of poly * (X - rt) is c_(k-1) - rt * c_k
            poly = [sub0(hi, mul0(rt, lo)) for hi, lo in zip([zero0] + poly, poly + [zero0])]
        phi = []
        for co in poly:
            if any(co[1:]):
                raise RuntimeError("modulus lift produced non-scalar coefficient")
            phi.append(co[0])
        if tuple(c % p for c in phi) != self.field.modulus:
            raise RuntimeError("modulus lift does not reduce to the field modulus")
        return tuple(phi)

    def _sigma_powers(self):
        """Entry j lists sigma^j(x^i) for i = 0..m-1, for j = 0..m-1."""
        m, mul = self.m, self._mul
        gen = (0, 1) + (0,) * (m - 2)
        table, xs = [], gen
        for _ in range(m):
            images = [(1,) + (0,) * (m - 1)]
            for _ in range(m - 1):
                images.append(mul(images[-1], xs))
            table.append(tuple(images))
            xs = _powmod(xs, self.p, mul)
        if xs != gen:
            raise RuntimeError("Frobenius on the lifted modulus does not have order m")
        return tuple(table)

    def _teich_entry(self, a):
        """(xi(a) mod p^N, (F^0(a), ..., F^(m-1)(a))) for a canonical residue
        a, from the memo; a missing xi(a) is sigma^-(N-1)(a^(p^(N-1)))."""
        entry = self._teich.get(a)
        if entry is None:
            N, pN, e = self.N, self.pN, self.p ** (self.N - 1)
            if self.m == 1:
                entry = (pow(a[0], e, pN),), (a,)
            else:
                entry = (self._sigma_N[(1 - N) % self.m](_powmod(a, e, self._mul)),
                         tuple([s(a) for s in self._sigma_p]))
            self._teich[a] = entry
        return entry

    def _norm_inverse(self, u):
        """_inv for m > 1: u^-1 = Norm(u)^-1 * conj for a unit u, where
        conj = prod_{k=1}^{m-1} sigma^k(u); checked by one product."""
        mul, pN, sigma = self._mul, self.pN, self._sigma_N
        conj = sigma[1](u)
        for k in range(2, self.m):
            conj = mul(conj, sigma[k](u))
        norm = mul(u, conj)
        if any(norm[1:]):
            raise RuntimeError("norm of a unit is not a scalar")
        n_inv = pow(norm[0], -1, pN)
        y = tuple([c * n_inv % pN for c in conj])
        if mul(u, y) != self._one:
            raise RuntimeError("norm inverse failed its check")
        return y

    def _matrix_kernels(self, n):
        """(matmul, det) of field._matrix_factory for size n, bound on first use."""
        kernels = self._matrix.get(n)
        if kernels is None:
            kernels = self._matrix[n] = _matrix_factory(self.m, n)(self._red, self.pN)
        return kernels

    # -- element construction --------------------------------------------------

    def from_coeffs(self, coeffs):
        if isinstance(coeffs, int):
            return self.from_int(coeffs)
        coeffs = tuple([operator.index(c) % self.pN for c in coeffs])
        if len(coeffs) != self.m:
            raise ValueError(f"expected {self.m} coefficients")
        return WittElem._make(self, coeffs)

    def from_int(self, k):
        """Canonical map Z -> W_N (an isomorphism onto Z/p^N for m = 1)."""
        return WittElem._make(self, (operator.index(k) % self.pN,) + (0,) * (self.m - 1))

    def p_power(self, e):
        if e < 0:
            raise ValueError("negative p-power exponent")
        return self._p_powers[e] if e < self.N else self.zero

    def teichmuller(self, a):
        """The multiplicative representative of a field element."""
        try:
            return WittElem._make(self, self._teich[a][0])
        except (KeyError, TypeError):  # not seen, or not canonical: the field checks it
            return WittElem._make(self, self._teich_entry(self.field.elem(a))[0])

    def from_digits(self, digits):
        """Inverse of WittElem.digits(): sum_i p^i xi(F^-i(a_i)).  The row of a
        residue a in the memo `_digit_rows` lists the N terms p^i xi(F^-i(a))."""
        table, rows, p, pN = self._digit_rows, [], self.p, self.pN
        for d in digits:
            try:
                rows.append(table[d])
            except (KeyError, TypeError):  # not seen, or not canonical: the field checks it
                a = self.field.elem(d)
                frob = self._teich_entry(a)[1]
                rows.append(table.setdefault(a, tuple(
                    tuple([p ** i * c % pN for c in self._teich_entry(frob[-i % self.m])[0]])
                    for i in range(self.N))))
        if len(rows) != self.N:
            raise ValueError(f"expected {self.N} digits")
        return WittElem._make(self, tuple(
            [sum(c) % pN for c in zip(*[terms[i] for i, terms in enumerate(rows)])]))

    def random(self, rng):
        return WittElem._make(self, tuple(_draw_below(rng, self.pN, self.m)))

    def random_unit(self, rng):
        # unit iff the residue is nonzero; redraw the whole element until it is
        while True:
            a = self.random(rng)
            if a.is_unit():
                return a

    def random_multiple_of_p(self, rng):
        p = self.p
        return WittElem._make(
            self, tuple(p * rng.randrange(self.pN // p) % self.pN for _ in range(self.m)))

    def divider(self, b):
        """`_divider(b)[0]` on WittElems: a -> some q with q*b == a."""
        m1 = self.m == 1
        divide = self._divider(b.coeffs[0] if m1 else b.coeffs)[0]

        def divide_elems(a):
            b._common_ring(a)
            q = divide(a.coeffs[0] if m1 else a.coeffs)
            return WittElem._make(self, (q,) if m1 else q)
        return divide_elems

    def _divider(self, b):
        """(divide, w) for a nonzero bare b: divide(a) is some q with q*b == a,
        for valuation(a) >= valuation(b), and w inverts b's unit part b / p^v,
        once for a whole pivot row and column.  Quotients are only defined up
        to the annihilator of b; any solution is returned.  For a unit b it is
        one product, a -> w * a, defined for every a."""
        v = self._val(b)
        if v >= self.N:
            raise ZeroDivisionError("division by zero in W_N")
        mul = self._mul
        if v == 0:
            w = self._inv(b)
            return (lambda a: mul(w, a)), w
        pv, val, m1 = self.p ** v, self._val, self.m == 1
        w = self._inv(b // pv if m1 else tuple([c // pv for c in b]))

        def divide(a):
            if val(a) < v:
                raise ValueError("exact division requires valuation(a) >= valuation(b)")
            return mul(a // pv if m1 else tuple([c // pv for c in a]), w)
        return divide, w


class WittElem:
    """Immutable element of a WittRing."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        if not isinstance(ring, WittRing):
            raise TypeError("ring must be a WittRing")
        self.ring = ring
        self.coeffs = tuple([operator.index(c) % ring.pN for c in coeffs])
        if len(self.coeffs) != ring.m:
            raise ValueError(f"expected {ring.m} coefficients")

    @classmethod
    def _make(cls, ring, coeffs):
        self = object.__new__(cls)
        self.ring = ring
        self.coeffs = coeffs
        return self

    def _common_ring(self, other):
        ra = self.ring
        if not isinstance(other, WittElem):
            raise TypeError(f"cannot combine WittElem with {type(other).__name__}")
        rb = other.ring
        if ra is rb or ra.key == rb.key:
            return ra
        raise RingMismatchError(f"ring mismatch: {ra} vs {rb}")

    # -- ring operations --------------------------------------------------------

    def __add__(self, other):
        ring = self._common_ring(other)
        if ring.m == 1:
            return WittElem._make(ring, ((self.coeffs[0] + other.coeffs[0]) % ring.pN,))
        pN = ring.pN
        return WittElem._make(
            ring, tuple([(x + y) % pN for x, y in zip(self.coeffs, other.coeffs)]))

    def __sub__(self, other):
        ring = self._common_ring(other)
        if ring.m == 1:
            return WittElem._make(ring, ((self.coeffs[0] - other.coeffs[0]) % ring.pN,))
        return WittElem._make(ring, ring._sub(self.coeffs, other.coeffs))

    def __neg__(self):
        ring = self.ring
        pN = ring.pN
        return WittElem._make(ring, tuple([(-x) % pN for x in self.coeffs]))

    def __mul__(self, other):
        ring = self._common_ring(other)
        if ring.m == 1:
            return WittElem._make(ring, ((self.coeffs[0] * other.coeffs[0]) % ring.pN,))
        return WittElem._make(ring, ring._mul(self.coeffs, other.coeffs))

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        ring = self.ring
        if ring.m == 1:
            return WittElem._make(ring, (pow(self.coeffs[0], e, ring.pN),))
        return WittElem._make(ring, _powmod(self.coeffs, e, ring._mul))

    def inverse(self):
        ring = self.ring
        if not self.is_unit():
            raise NotAUnitError(f"{self!r} is not a unit")
        c = self.coeffs
        return WittElem._make(ring, (ring._inv(c[0]),) if ring.m == 1 else ring._inv(c))

    def __eq__(self, other):
        if not isinstance(other, WittElem):
            return NotImplemented
        return self.ring.key == other.ring.key and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ring.key, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        ring = self.ring
        if ring.m == 1:
            return f"W({self.coeffs[0]} mod {ring.p}^{ring.N})"
        return f"W({list(self.coeffs)} mod {ring.p}^{ring.N}, m={ring.m})"

    # -- structure maps ---------------------------------------------------------

    def is_zero(self):
        return not any(self.coeffs)

    def is_unit(self):
        p = self.ring.p
        return any(c % p for c in self.coeffs)

    def valuation(self):
        """Index of the first nonzero Witt digit; N for the zero element."""
        ring = self.ring
        return ring._val(self.coeffs[0] if ring.m == 1 else self.coeffs)

    def residue(self):
        p = self.ring.p
        return tuple(c % p for c in self.coeffs)

    def frobenius(self):
        """The lift of the field Frobenius; raises each digit to the p-th power."""
        ring = self.ring
        if ring.m == 1:
            return self
        return WittElem._make(ring, ring._sigma_N[1](self.coeffs))

    def verschiebung(self):
        """Digit right-shift; equals p * frobenius^{-1}."""
        ring = self.ring
        if ring.m == 1:
            return WittElem._make(ring, (ring.p * self.coeffs[0] % ring.pN,))
        return WittElem._make(ring, ring._sigma_N[-1]([ring.p * c for c in self.coeffs]))

    def teichmuller_digits(self):
        """Digits (b_0, ..., b_{N-1}) of the plain expansion sum p^i xi(b_i)."""
        ring = self.ring
        p = ring.p
        # each coefficient is congruent to that of xi(b) mod p, so the
        # quotient is exact; later steps read only residues mod p
        z, out, teich, entry = self.coeffs, [], ring._teich, ring._teich_entry
        for _ in range(ring.N):
            b = tuple([c % p for c in z])
            z = [(c - t) // p for c, t in zip(z, (teich.get(b) or entry(b))[0])]
            out.append(b)
        return tuple(out)

    def digits(self):
        """Standard Witt coordinates (a_0, ..., a_{N-1}), a_i = b_i^(p^i),
        read from the memo entries that teichmuller_digits filled."""
        teich, m = self.ring._teich, self.ring.m
        return tuple([teich[b][1][i % m] for i, b in enumerate(self.teichmuller_digits())])

    def to_int(self):
        """Integer codec W_N(F_p) = Z/p^N; only defined for m = 1."""
        if self.ring.m != 1:
            raise CodecUnsupportedError("integer codec requires m = 1")
        return self.coeffs[0]


# -- JSON codec ------------------------------------------------------------------

def elem_to_obj(a):
    """JSON object for a WittElem: digit arrays of field coefficients."""
    ring = a.ring
    return {
        "p": ring.p,
        "m": ring.m,
        "N": ring.N,
        "digits": [list(d) for d in a.digits()],
    }


def _int_fields(obj, keys):
    """The values of `keys` in a JSON object, each an exact int (not bool)."""
    vals = tuple(obj[k] for k in keys)
    if any(type(v) is not int for v in vals):
        raise ValueError(f"{', '.join(keys)} must be integers, got {vals!r}")
    return vals


def elem_from_obj(obj):
    p, m, N = _int_fields(obj, ("p", "m", "N"))
    ring = witt_ring(p, N, m)
    digits = obj["digits"]
    if not isinstance(digits, list) or len(digits) != ring.N:
        raise ValueError(f"expected a list of {ring.N} digits")
    for d in digits:  # type() also rejects bool, an int subclass
        if not isinstance(d, list) or len(d) != ring.m or any(type(c) is not int for c in d):
            raise ValueError(f"each digit must be a list of {ring.m} integers, got {d!r}")
    return ring.from_digits(digits)
