"""Truncated Witt vector arithmetic: the ring W_N(F_{p^m}).

Elements are stored as residues in the unramified extension
(Z/p^N)[x]/(Phi), where Phi is the Teichmueller lift of the field modulus
(the unique monic lift dividing x^{p^m} - x mod p^N).  With that modulus
the Frobenius sigma is x -> x^p, a linear map on the power basis; sigma^j
for j = 0..m-1 is tabulated once per ring, and mod p the same table
applies the field Frobenius F^j.  For m > 1 a unit u is inverted through
its norm: Norm(u) = u * prod_{k=1}^{m-1} sigma^k(u) is a scalar n of
Z/p^N, and u^-1 = n^-1 * prod_{k=1}^{m-1} sigma^k(u).

Each ring memoises the Teichmueller lifts xi(b) mod p^N, keyed by the
residue b: at most q entries, each filled on first use.  Any lift y of b
is xi(b) mod p, so y^(p^(N-1)) = sigma^(N-1)(xi(b)) mod p^N and
xi(b) = sigma^-(N-1)(b^(p^(N-1))).  The digit codecs are then lookups and
sigma-table maps: the Witt digits a_i = F^i(b_i) of sum_i p^i xi(b_i),
and from_digits sums p^i xi(F^-i(a_i)), since sigma^-i(xi(a)) =
xi(F^-i(a)).  For m = 1 sigma is the identity and the whole ring is
Z/p^N under the integer codec.
"""

import threading

from .errors import CodecUnsupportedError, NotAUnitError, RingMismatchError
from .field import FieldDescriptor, _mulmod, _powmod

_RING_CACHE = {}
_RING_LOCK = threading.Lock()


def witt_ring(p, N, m=1, modulus=None):
    """Shared-instance constructor for W_N(F_{p^m})."""
    key = (p, N, m, tuple(modulus) if modulus is not None else None)
    ring = _RING_CACHE.get(key)
    if ring is None:
        with _RING_LOCK:
            ring = _RING_CACHE.get(key)
            if ring is None:
                ring = WittRing(p, N, m, modulus)
                _RING_CACHE[key] = ring
    return ring


def _int_val(c, p, N):
    if c == 0:
        return N
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v


class WittRing:
    """Descriptor and operation table for W_N(F_{p^m})."""

    __slots__ = ("field", "p", "m", "N", "pN", "key", "phi", "_sigma", "_teich",
                 "zero", "one")

    def __init__(self, p, N, m=1, modulus=None):
        if N < 1:
            raise ValueError("length N must be >= 1")
        self.field = FieldDescriptor(p, m, modulus)
        self.p = p
        self.m = m
        self.N = N
        self.pN = p ** N
        self.key = (p, m, N, self.field.modulus)
        self.phi = self._lift_modulus() if m > 1 else None
        self._sigma = self._sigma_powers() if m > 1 else None
        self._teich = {}
        self.zero = WittElem._make(self, (0,) * m)
        self.one = WittElem._make(self, (1,) + (0,) * (m - 1))

    def __eq__(self, other):
        return isinstance(other, WittRing) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"WittRing(p={self.p}, m={self.m}, N={self.N})"

    # -- modulus lifting -----------------------------------------------------

    def _lift_modulus(self):
        """Phi = prod over the Frobenius orbit of (X - tau), tau the
        Teichmueller lift of the field generator in a scratch quotient."""
        p, m, N, pN = self.p, self.m, self.N, self.pN
        f0 = self.field.modulus  # naive monic lift

        gen = (0, 1) + (0,) * (m - 2)
        tau = _powmod(gen, self.field.q ** (N - 1), f0, pN)
        roots = [tau]
        for _ in range(m - 1):
            roots.append(_powmod(roots[-1], p, f0, pN))
        # expand prod (X - root) with coefficients in the scratch quotient
        zero0 = (0,) * m
        poly = [(1,) + (0,) * (m - 1)]
        for rt in roots:
            neg_rt = tuple((-c) % pN for c in rt)
            new = [zero0] * (len(poly) + 1)
            for k, co in enumerate(poly):
                new[k + 1] = tuple((new[k + 1][j] + co[j]) % pN for j in range(m))
                prod = _mulmod(co, neg_rt, f0, pN)
                new[k] = tuple((new[k][j] + prod[j]) % pN for j in range(m))
            poly = new
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
        m, phi, pN = self.m, self.phi, self.pN
        gen = (0, 1) + (0,) * (m - 2)
        table, xs = [], gen
        for _ in range(m):
            images = [(1,) + (0,) * (m - 1)]
            for _ in range(m - 1):
                images.append(_mulmod(images[-1], xs, phi, pN))
            table.append(tuple(images))
            xs = _powmod(xs, self.p, phi, pN)
        if xs != gen:
            raise RuntimeError("Frobenius on the lifted modulus does not have order m")
        return tuple(table)

    def _sigma_apply(self, coeffs, j, mod):
        """sigma^j(coeffs) mod `mod`, for any integer j (sigma has order m)."""
        j %= self.m
        if j == 0:
            return tuple([c % mod for c in coeffs])
        images, m = self._sigma[j], self.m
        out = [0] * m
        for k, c in enumerate(coeffs):
            if c:
                img = images[k]
                for i in range(m):
                    out[i] = (out[i] + c * img[i]) % mod
        return tuple(out)

    def _teichmuller_lift(self, a):
        """Coefficients of xi(a) mod p^N for a canonical residue a, from the
        memo; a missing entry is sigma^-(N-1)(a^(p^(N-1)))."""
        xi = self._teich.get(a)
        if xi is None:
            N, pN, e = self.N, self.pN, self.p ** (self.N - 1)
            y = (pow(a[0], e, pN),) if self.m == 1 else _powmod(a, e, self.phi, pN)
            xi = self._teich[a] = self._sigma_apply(y, 1 - N, pN)
        return xi

    # -- element construction --------------------------------------------------

    def from_coeffs(self, coeffs):
        if isinstance(coeffs, int):
            return self.from_int(coeffs)
        coeffs = tuple(int(c) % self.pN for c in coeffs)
        if len(coeffs) != self.m:
            raise ValueError(f"expected {self.m} coefficients")
        return WittElem._make(self, coeffs)

    def from_int(self, k):
        """Canonical map Z -> W_N (an isomorphism onto Z/p^N for m = 1)."""
        return WittElem._make(self, (k % self.pN,) + (0,) * (self.m - 1))

    def p_power(self, e):
        if e < 0:
            raise ValueError("negative p-power exponent")
        return self.from_int(pow(self.p, e)) if e < self.N else self.zero

    def teichmuller(self, a):
        """The multiplicative representative of a field element."""
        return WittElem._make(self, self._teichmuller_lift(self.field.elem(a)))

    def from_digits(self, digits):
        """Inverse of WittElem.digits(): sum_i p^i xi(F^-i(a_i))."""
        digits = [self.field.elem(d) for d in digits]
        if len(digits) != self.N:
            raise ValueError(f"expected {self.N} digits")
        p, m, pN = self.p, self.m, self.pN
        acc, pe = [0] * m, 1
        for i, a in enumerate(digits):
            if any(a):
                if m > 1:
                    a = self._sigma_apply(a, -i, p)
                acc = [x + pe * c for x, c in zip(acc, self._teichmuller_lift(a))]
            pe *= p
        return WittElem._make(self, tuple([x % pN for x in acc]))

    def random(self, rng):
        return WittElem._make(self, tuple(rng.randrange(self.pN) for _ in range(self.m)))

    def random_unit(self, rng):
        # unit iff the residue is nonzero; resample just the residue part
        while True:
            a = self.random(rng)
            if a.is_unit():
                return a

    def random_multiple_of_p(self, rng):
        p = self.p
        return WittElem._make(
            self, tuple(p * rng.randrange(self.pN // p) % self.pN for _ in range(self.m)))

    def divider(self, b):
        """The map a -> some q with q*b == a, for valuation(a) >= valuation(b).

        b's unit part is inverted once, so one divider clears a whole pivot
        row and column.  Quotients are only defined up to the annihilator of
        b; any solution is returned, which is all elimination algorithms need.
        """
        v = b.valuation()
        if v >= self.N:
            raise ZeroDivisionError("division by zero in W_N")
        pv = self.p ** v
        unit_inv = WittElem._make(self, tuple(c // pv for c in b.coeffs)).inverse()

        def divide(a):
            if a.valuation() < v:
                raise ValueError("exact division requires valuation(a) >= valuation(b)")
            return WittElem._make(self, tuple(c // pv for c in a.coeffs)) * unit_inv
        return divide


class WittElem:
    """Immutable element of a WittRing."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        if not isinstance(ring, WittRing):
            raise TypeError("ring must be a WittRing")
        self.ring = ring
        self.coeffs = tuple(int(c) % ring.pN for c in coeffs)
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
            ring, tuple((x + y) % pN for x, y in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        ring = self._common_ring(other)
        if ring.m == 1:
            return WittElem._make(ring, ((self.coeffs[0] - other.coeffs[0]) % ring.pN,))
        pN = ring.pN
        return WittElem._make(
            ring, tuple((x - y) % pN for x, y in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        ring = self.ring
        pN = ring.pN
        return WittElem._make(ring, tuple((-x) % pN for x in self.coeffs))

    def __mul__(self, other):
        ring = self._common_ring(other)
        if ring.m == 1:
            return WittElem._make(ring, ((self.coeffs[0] * other.coeffs[0]) % ring.pN,))
        return WittElem._make(ring, _mulmod(self.coeffs, other.coeffs, ring.phi, ring.pN))

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        ring = self.ring
        if ring.m == 1:
            return WittElem._make(ring, (pow(self.coeffs[0], e, ring.pN),))
        return WittElem._make(ring, _powmod(self.coeffs, e, ring.phi, ring.pN))

    def inverse(self):
        ring = self.ring
        if not self.is_unit():
            raise NotAUnitError(f"{self!r} is not a unit")
        if ring.m == 1:
            return WittElem._make(ring, (pow(self.coeffs[0], -1, ring.pN),))
        # u^-1 = Norm(u)^-1 * conj, conj = prod_{k=1}^{m-1} sigma^k(u)
        phi, pN = ring.phi, ring.pN
        conj = ring._sigma_apply(self.coeffs, 1, pN)
        for k in range(2, ring.m):
            conj = _mulmod(conj, ring._sigma_apply(self.coeffs, k, pN), phi, pN)
        norm = _mulmod(self.coeffs, conj, phi, pN)
        if any(norm[1:]):
            raise RuntimeError("norm of a unit is not a scalar")
        n_inv = pow(norm[0], -1, pN)
        y = WittElem._make(ring, tuple(c * n_inv % pN for c in conj))
        if self * y != ring.one:
            raise RuntimeError("norm inverse failed its check")
        return y

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
        if ring.m == 1:
            return _int_val(self.coeffs[0], ring.p, ring.N)
        return min(_int_val(c, ring.p, ring.N) for c in self.coeffs)

    def residue(self):
        p = self.ring.p
        return tuple(c % p for c in self.coeffs)

    def frobenius(self):
        """The lift of the field Frobenius; raises each digit to the p-th power."""
        ring = self.ring
        return WittElem._make(ring, ring._sigma_apply(self.coeffs, 1, ring.pN))

    def verschiebung(self):
        """Digit right-shift; equals p * frobenius^{-1}."""
        ring = self.ring
        return WittElem._make(
            ring, ring._sigma_apply([ring.p * c for c in self.coeffs], -1, ring.pN))

    def teichmuller_digits(self):
        """Digits (b_0, ..., b_{N-1}) of the plain expansion sum p^i xi(b_i)."""
        ring = self.ring
        p, N, pN = ring.p, ring.N, ring.pN
        if ring.m == 1:
            c = self.coeffs[0]
            out = []
            texp = p ** (N - 1)
            for _ in range(N):
                b = c % p
                if b:
                    c = (c - pow(b, texp, pN)) % pN
                out.append((b,))
                c //= p
            return tuple(out)
        z, out = self.coeffs, []
        for k in range(N, 0, -1):
            b, pk = tuple(c % p for c in z), p ** k
            z = tuple((c - t) % pk // p for c, t in zip(z, ring._teichmuller_lift(b)))
            out.append(b)
        return tuple(out)

    def digits(self):
        """Standard Witt coordinates (a_0, ..., a_{N-1}), a_i = b_i^(p^i)."""
        ring = self.ring
        raw = self.teichmuller_digits()
        if ring.m == 1:
            return raw
        return tuple(ring._sigma_apply(b, i, ring.p) for i, b in enumerate(raw))

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


def elem_from_obj(obj):
    ring = witt_ring(int(obj["p"]), int(obj["N"]), int(obj["m"]))
    digits = obj["digits"]
    if not isinstance(digits, list) or len(digits) != ring.N:
        raise ValueError(f"expected a list of {ring.N} digits")
    for d in digits:  # type() also rejects bool, an int subclass
        if not isinstance(d, list) or len(d) != ring.m or any(type(c) is not int for c in d):
            raise ValueError(f"each digit must be a list of {ring.m} integers, got {d!r}")
    return ring.from_digits(digits)
