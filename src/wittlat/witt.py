"""Truncated Witt vector arithmetic: the ring W_N(F_{p^m}).

Elements are stored as residues in the unramified extension
(Z/p^N)[x]/(Phi), where Phi is the Teichmueller lift of the field modulus
(the unique monic lift dividing x^{p^m} - x mod p^N).  With that modulus
the Frobenius sigma is x -> x^p, a linear map on the power basis; sigma^j
for j = 0..m-1 is bound once per ring as a straight-line map mod p^N and
one mod p, which applies the field Frobenius F^j.  Those maps, products,
sums and differences are the kernels generated once per m in field.py,
bound to Phi mod p^N at construction.  For m > 1 one more of them inverts a
unit u through its norm:
Norm(u) = u * prod_{k=1}^{m-1} sigma^k(u) is a scalar n of Z/p^N, and
u^-1 = n^-1 * prod_{k=1}^{m-1} sigma^k(u).

Each ring memoises, per residue b, the Teichmueller lift xi(b) mod p^N
and the conjugates F^j(b): at most q entries, each filled on first use.
Any lift y of b is xi(b) mod p, so y^(p^(N-1)) = sigma^(N-1)(xi(b)) mod p^N
and xi(b) = sigma^-(N-1)(b^(p^(N-1))).  The digit codecs, straight-line
kernels generated once per (m, N) and bound on first use, read that memo:
the Witt digits a_i = F^i(b_i) of sum_i p^i xi(b_i), and from_digits sums
p^i xi(F^-i(a_i)), since sigma^-i(xi(a)) = xi(F^-i(a)), from a second memo
of those N terms per residue, also at most q entries.  For m = 1 sigma is
the identity and the whole ring is Z/p^N under the integer codec.
"""

import functools
import math
import operator
import random
import threading

from .errors import CodecUnsupportedError, NotAUnitError, RingMismatchError
from .field import (FieldDescriptor, _check_bound, _compiled, _kernels, _matrix_factory, _powmod,
                    _tup)

_RING_CACHE = {}
_RING_LOCK = threading.Lock()


def witt_ring(p, N, m=1):
    """Shared-instance constructor for W_N(F_{p^m}), keyed by (p, N, m) read as ints."""
    key = (operator.index(p), operator.index(N), operator.index(m))
    ring = _RING_CACHE.get(key)
    if ring is None:
        with _RING_LOCK:
            ring = _RING_CACHE.get(key)
            if ring is None:
                ring = _RING_CACHE[key] = WittRing(*key)
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


@functools.cache
def _codec_factory(m, N):
    """make(p, pN, teich, entry, rows, row, elem) -> (tdigits, digits, fsum, lift),
    straight-line in the N digits: tdigits(v) peels b_i = z mod p off z = v,
    z -> (z - xi(b_i)) // p (exact), xi(b_i) from `teich` or `entry(b_i)`;
    digits(v) reads a_i = F^i(b_i) off the same entries; fsum sums term i of
    the row of digit i, then checks the length; lift(a) is xi(a).  Only
    canonical values (tuples of m ints) are looked up in the memos `rows` and
    `teich`; the field checks any other, in `row` or through `elem`."""
    z, t = ", ".join(f"z{j}" for j in range(m)), _tup(f"t{j}" for j in range(m))
    peel = [f"        {z} = v"]
    for i in range(N):
        peel.append(f"        b{i} = {_tup(f'z{j} % p' for j in range(m))}")
        if i < N - 1:
            peel += [f"        {t}, f{i} = teich.get(b{i}) or entry(b{i})",
                     f"        {z} = " + ", ".join(f"(z{j} - t{j}) // p" for j in range(m))]
    sums = [f"({' + '.join(f'r{i}[{i}][{j}]' for i in range(N))}) % pN" for j in range(m)]
    canonical = " and ".join(["type(d) is tuple", f"len(d) == {m}"]
                             + [f"type(d[{j}]) is int" for j in range(m)])
    src = ["    def tdigits(v):", *peel,
           f"        return {_tup(f'b{i}' for i in range(N))}", "    def digits(v):", *peel,
           f"        f{N - 1} = (teich.get(b{N - 1}) or entry(b{N - 1}))[1]",
           f"        return {_tup(f'f{i}[{i % m}]' for i in range(N))}", "    def fsum(digits):",
           f"        out = [{canonical} and rows.get(d) or row(d) for d in digits]",
           f"        if len(out) != {N}:", f"            raise ValueError('expected {N} digits')",
           f"        {_tup(f'r{i}' for i in range(N))} = out",
           f"        return {_tup(sums) if m > 1 else sums[0]}", "    def lift(d):",
           f"        return ({canonical} and teich.get(d) or entry(elem(d)))[0]",
           "    return tdigits, digits, fsum, lift"]
    return _compiled(f"<codec m={m} N={N}>", "p, pN, teich, entry, rows, row, elem", src)


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

    `_mul`, `_add`, `_sub`, `_submul` (x - a*b), `_val`, `_inv`, `_divider`,
    `_one` and `_zero` are the ring on bare values: ints mod p^N for m = 1,
    coefficient tuples (the generated kernels, the norm inverse among them) for
    m > 1.  A WittElem wraps one bare value, and `_elem` is the one way in from
    a coefficient tuple.  `_matrix_kernels(n)`
    binds the n x n product and determinant on first use, `_codec()` the digit
    codecs; `_diagonals` is the memo of matrix.p_power_diagonal."""

    __slots__ = ("field", "p", "m", "N", "pN", "key", "phi", "_mul", "_add", "_sub", "_submul",
                 "_val", "_inv", "_red", "_matrix", "_diagonals", "_sigma_p", "_sigma_N", "_teich",
                 "_digit_rows", "_codecs", "_p_powers", "zero", "one", "_zero", "_one")

    def __init__(self, p, N, m=1):
        p, N, m = operator.index(p), operator.index(N), operator.index(m)
        if N < 1:
            raise ValueError("length N must be >= 1")
        _check_bound("N", N)
        self.field = FieldDescriptor(p, m)
        self.p = p
        self.m = m
        self.N = N
        self.pN = pN = p ** N
        self.key = (p, m, N, self.field.modulus)
        self.phi = self._lift_modulus() if m > 1 else None
        self._mul, self._add = (lambda a, b: a * b % pN), (lambda a, b: (a + b) % pN)
        self._sub, self._submul = (lambda a, b: (a - b) % pN), (lambda x, a, b: (x - a * b) % pN)
        self._val, self._inv = _valuation(p, N, m), (lambda u: pow(u, -1, pN))
        self._red, self._sigma_p, self._sigma_N, self._codecs = [], None, None, None
        if m > 1:
            self._red, self._mul, self._add, self._sub, self._submul, linear, inverse = \
                _kernels(self.phi, pN)
            sigma = self._sigma_powers()
            self._inv = inverse(sigma[1:])
            # entry j applies sigma^j, so entry -j applies sigma^-j
            self._sigma_p = tuple(linear(images, p) for images in sigma)
            self._sigma_N = tuple(linear(images, self.pN) for images in sigma)
        self._teich, self._digit_rows, self._matrix, self._diagonals = {}, {}, {}, {}
        self._p_powers = tuple(self._elem((p ** e,) + (0,) * (m - 1)) for e in range(N))
        self.zero = self._elem((0,) * m)
        self.one = self._p_powers[0]
        self._zero, self._one = self.zero._v, self.one._v

    def __eq__(self, other):
        return isinstance(other, WittRing) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __reduce__(self):  # the kernels are closures: rebuild through the shared-instance cache
        return witt_ring, (self.p, self.N, self.m)

    def __repr__(self):
        return f"WittRing(p={self.p}, m={self.m}, N={self.N})"

    # -- modulus lifting -----------------------------------------------------

    def _lift_modulus(self):
        """Phi = prod over the Frobenius orbit of (X - tau), tau the
        Teichmueller lift of the field generator in a scratch quotient."""
        p, m, N, pN = self.p, self.m, self.N, self.pN
        _, mul0, _, sub0, *_ = _kernels(self.field.modulus, pN)  # naive monic lift f0

        gen = (0, 1) + (0,) * (m - 2)
        roots = [_powmod(gen, self.field.q ** (N - 1), mul0)]  # tau
        for _ in range(m - 1):
            roots.append(_powmod(roots[-1], p, mul0))
        # expand prod (X - root) with coefficients in the scratch quotient
        zero0 = (0,) * m
        poly = [(1,) + (0,) * (m - 1)]
        for rt in roots:  # coefficient k of poly * (X - rt) is c_(k-1) - rt * c_k
            poly = [sub0(hi, mul0(rt, lo)) for hi, lo in zip([zero0] + poly, poly + [zero0])]
        if any(any(co[1:]) for co in poly):
            raise RuntimeError("modulus lift produced non-scalar coefficient")
        phi = tuple(co[0] for co in poly)
        if tuple(c % p for c in phi) != self.field.modulus:
            raise RuntimeError("modulus lift does not reduce to the field modulus")
        return phi

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

    def _matrix_kernels(self, n):
        """(matmul, det) of field._matrix_factory for size n, bound on first use."""
        kernels = self._matrix.get(n)
        if kernels is None:
            kernels = self._matrix[n] = _matrix_factory(self.m, n)(self.pN, *self._red)
        return kernels

    def _codec(self):
        """(tdigits, digits, fsum, lift) of _codec_factory for (m, N), bound on first use."""
        if self._codecs is None:
            self._codecs = _codec_factory(self.m, self.N)(
                self.p, self.pN, self._teich, self._teich_entry, self._digit_rows,
                self._digit_row, self.field.elem)
        return self._codecs

    # -- element construction --------------------------------------------------

    def _elem(self, coeffs):
        """The element of a reduced coefficient tuple: its bare value is the
        int coeffs[0] for m = 1 and the tuple itself for m > 1."""
        return WittElem._make(self, coeffs[0] if self.m == 1 else coeffs)

    def from_coeffs(self, coeffs):
        if isinstance(coeffs, int):
            return self.from_int(coeffs)
        return WittElem(self, coeffs)

    def from_int(self, k):
        """Canonical map Z -> W_N (an isomorphism onto Z/p^N for m = 1)."""
        return self._elem((operator.index(k) % self.pN,) + (0,) * (self.m - 1))

    def p_power(self, e):
        if e < 0:
            raise ValueError("negative p-power exponent")
        return self._p_powers[e] if e < self.N else self.zero

    def teichmuller(self, a):
        """The multiplicative representative of a field element."""
        return self._elem(self._codec()[3](a))

    def from_digits(self, digits):
        """Inverse of WittElem.digits(): sum_i p^i xi(F^-i(a_i)), by the codec's
        fsum.  One pass over `digits` checks each digit in order, then the length."""
        return WittElem._make(self, self._codec()[2](digits))

    def _digit_row(self, d):
        """The row of the digit d in the memo `_digit_rows`, the N terms
        p^i xi(F^-i(a)) for a = d checked by the field, filled on first use."""
        a, p, pN = self.field.elem(d), self.p, self.pN
        row = self._digit_rows.get(a)
        if row is None:
            frob = self._teich_entry(a)[1]
            row = self._digit_rows[a] = tuple(
                tuple([p ** i * c % pN for c in self._teich_entry(frob[-i % self.m])[0]])
                for i in range(self.N))
        return row

    def random(self, rng):
        return self._elem(tuple(_draw_below(rng, self.pN, self.m)))

    def random_unit(self, rng):
        # unit iff the residue is nonzero; redraw the whole element until it is
        while True:
            a = self.random(rng)
            if a.is_unit():
                return a

    def random_multiple_of_p(self, rng):
        p = self.p
        return self._elem(tuple([p * c for c in _draw_below(rng, self.pN // p, self.m)]))

    def divider(self, b):
        """`_divider(b)[0]` on WittElems: a -> some q with q*b == a."""
        divide = self._divider(b._v)[0]

        def divide_elems(a):
            b._common_ring(a)
            return WittElem._make(self, divide(a._v))
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
    """Immutable element of a WittRing: `_v` is its bare value (see WittRing),
    and `coeffs` the coefficient tuple on the power basis, (v,) for m = 1."""

    __slots__ = ("ring", "_v")

    def __init__(self, ring, coeffs):
        if not isinstance(ring, WittRing):
            raise TypeError("ring must be a WittRing")
        coeffs = tuple([operator.index(c) % ring.pN for c in coeffs])
        if len(coeffs) != ring.m:
            raise ValueError(f"expected {ring.m} coefficients")
        self.ring, self._v = ring, ring._elem(coeffs)._v

    @classmethod
    def _make(cls, ring, v):
        self = object.__new__(cls)
        self.ring = ring
        self._v = v
        return self

    @property
    def coeffs(self):
        v = self._v
        return (v,) if self.ring.m == 1 else v

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
        return WittElem._make(ring, ring._add(self._v, other._v))

    def __sub__(self, other):
        ring = self._common_ring(other)
        return WittElem._make(ring, ring._sub(self._v, other._v))

    def __neg__(self):
        ring = self.ring
        return WittElem._make(ring, ring._sub(ring._zero, self._v))

    def __mul__(self, other):
        ring = self._common_ring(other)
        return WittElem._make(ring, ring._mul(self._v, other._v))

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        ring = self.ring
        return WittElem._make(ring, _powmod(self._v, e, ring._mul) if e else ring._one)

    def inverse(self):
        if not self.is_unit():
            raise NotAUnitError(f"{self!r} is not a unit")
        ring = self.ring
        return WittElem._make(ring, ring._inv(self._v))

    def __eq__(self, other):
        if not isinstance(other, WittElem):
            return NotImplemented
        return self.ring.key == other.ring.key and self._v == other._v

    def __hash__(self):
        return hash((self.ring.key, self._v))

    def __bool__(self):
        return self._v != self.ring._zero

    def __repr__(self):
        ring = self.ring
        if ring.m == 1:
            return f"W({self._v} mod {ring.p}^{ring.N})"
        return f"W({list(self._v)} mod {ring.p}^{ring.N}, m={ring.m})"

    # -- structure maps ---------------------------------------------------------

    def is_zero(self):
        return self._v == self.ring._zero

    def is_unit(self):
        return self.ring._val(self._v) == 0

    def valuation(self):
        """Index of the first nonzero Witt digit; N for the zero element."""
        return self.ring._val(self._v)

    def residue(self):
        v, p = self._v, self.ring.p
        return (v % p,) if self.ring.m == 1 else tuple([c % p for c in v])

    def frobenius(self):
        """The lift of the field Frobenius; raises each digit to the p-th power."""
        ring = self.ring
        if ring.m == 1:
            return self
        return WittElem._make(ring, ring._sigma_N[1](self._v))

    def verschiebung(self):
        """Digit right-shift; equals p * frobenius^{-1}."""
        ring = self.ring
        if ring.m == 1:
            return WittElem._make(ring, ring.p * self._v % ring.pN)
        return WittElem._make(ring, ring._sigma_N[-1]([ring.p * c for c in self._v]))

    def teichmuller_digits(self):
        """Digits (b_0, ..., b_{N-1}) of the plain expansion sum p^i xi(b_i)."""
        return self.ring._codec()[0](self._v)

    def digits(self):
        """Standard Witt coordinates (a_0, ..., a_{N-1}), a_i = b_i^(p^i)."""
        return self.ring._codec()[1](self._v)

    def to_int(self):
        """Integer codec W_N(F_p) = Z/p^N; only defined for m = 1."""
        if self.ring.m != 1:
            raise CodecUnsupportedError("integer codec requires m = 1")
        return self._v


# -- JSON codec ------------------------------------------------------------------

def elem_to_obj(a):
    """JSON object for a WittElem: digit arrays of field coefficients."""
    return _value_to_obj(a.ring, a._v)


def _value_to_obj(ring, v):
    """elem_to_obj of the bare value v of `ring`, through the digit kernel."""
    digits = [list(d) for d in ring._codec()[1](v)]
    return {"p": ring.p, "m": ring.m, "N": ring.N, "digits": digits}


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
