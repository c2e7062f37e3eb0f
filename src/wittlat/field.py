"""Arithmetic in the finite field F_{p^m}.

Field elements are tuples of m integers in [0, p): little-endian
coefficients with respect to the generator of F_p[x]/(modulus).  For m = 1
the modulus is irrelevant and elements are 1-tuples.  For m > 1 products,
sums, differences and linear maps (the Witt ring's sigma^j) use straight-line
kernels compiled once per degree m, bound to the modulus f by the table
red[k] = x^(m+k) mod f (the Witt ring binds them to Phi mod p^N).  The
same kernels run the irreducibility test, Rabin's, behind the search for
the default modulus: the unit test in it needs no gcd, because once
x^(p^m) == x mod f, F_p[x]/(f) is a product of fields F_{p^d} with d | m.
"""

import functools
import itertools
import linecache
import operator

from .errors import BoundError


def is_prime(n):
    n = operator.index(n)  # a float, even 3.0, raises TypeError
    return n >= 2 and _prime_factors(n) == [n]


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


# -- fixed-degree residues in (Z/mod)[x]/(f), f monic of degree m ---------
# Shared by F_{p^m} and its irreducibility test (mod = p, f the field
# modulus or a candidate) and by the Witt ring (mod = p^k, f the lifted
# modulus or, while lifting, the field modulus) through kernels built once
# per m, and per (m, n) for n x n matrices over the ring; f enters only
# through red[k] = x^(m+k) mod f, k = 0..m-2.

@functools.cache
def _mulmod_factory(m):
    """make(mod, *red) -> (mul, add, sub, submul, linear, inverse) for degree m > 1:
    a*b, a + b, a - b, submul(x, a, b) = x - a*b, and linear(img, k) binds the
    map a -> sum_i a_i*img[i] mod k (img[i] the image of x^i); each output
    coefficient is reduced once.  inverse(imgs), imgs the images of sigma^k
    for k = 1..m-1, binds a -> a^-1 = n^-1 * conj for conj = prod_k sigma^k(a),
    checked twice: Norm(a) = a*conj is a scalar n, and a * a^-1 == 1."""
    idx = range(m)
    a, b, x, n, y = ([f"{v}{i}" for i in idx] for v in "abxny")
    A, B, X, Y = (", ".join(v) for v in (a, b, x, y))

    def images(k):  # unpacks the images of sigma^k: sigma^k(x^i) has coefficients s{k}_{i}_j
        return _tup(_tup(f"s{k}_{i}_{j}" for j in idx) for i in idx)

    def image(k):  # the coefficients of sigma^k(a), unreduced
        return [" + ".join(f"a{i}*s{k}_{i}_{j}" for i in idx) for j in idx]
    # conj, unreduced until it is multiplied out: the product h of g_k = sigma^k(a)
    conj = [f"            g{k}_{j} = {c}" for k in range(1, m) for j, c in enumerate(image(k))]
    h = [f"g1_{j}" for j in idx]
    for k in range(2, m):
        conj += _combine(m, [(1, h, [f"g{k}_{j}" for j in idx])],
                         ", ".join(f"h{j}" for j in idx) + " = ", " " * 12)
        h = [f"h{j}" for j in idx]
    return _compiled(f"<mulmod m={m}>", _red_params(m), [
        "    def mul(a, b):",
        f"        ({A}), ({B}) = a, b",
        *_combine(m, [(1, a, b)], "return ", "        "),
        *[line for op, sign in (("add", "+"), ("sub", "-")) for line in (
            f"    def {op}(a, b):", f"        ({A}), ({B}) = a, b",
            "        return (" + ", ".join(f"(a{i} {sign} b{i}) % mod" for i in idx) + ")")],
        "    def submul(x, a, b):",
        f"        ({X}), ({A}), ({B}) = x, a, b",
        *_combine(m, [(1, a, b)], "return ", "        ", x),
        "    def linear(img, k):",
        f"        {images(0)} = img",
        "        def apply(a):",
        f"            ({A}) = a",
        "            return (" + ", ".join(f"({c}) % k" for c in image(0)) + ")",
        "        return apply",
        "    def inverse(imgs):",
        f"        {_tup(images(k) for k in range(1, m))} = imgs",
        "        def inv(a):",
        f"            ({A}) = a",
        *conj,
        *_combine(m, [(1, a, h)], ", ".join(n) + " = ", " " * 12),
        f"            if {' or '.join(n[1:])}:",
        '                raise RuntimeError("norm of a unit is not a scalar")',
        "            w = pow(n0, -1, mod)",
        f"            {Y} = " + ", ".join(f"{c} * w % mod" for c in h),
        *_combine(m, [(1, a, y)], "e = ", " " * 12),
        f"            if e != ({', '.join(['1'] + ['0'] * (m - 1))}):",
        '                raise RuntimeError("norm inverse failed its check")',
        f"            return ({Y})",
        "        return inv",
        "    return mul, add, sub, submul, linear, inverse"])


def _compiled(filename, params, body):
    """make(params), its body given, compiled: the one compile site.  The source
    goes into linecache (mtime None: checkcache keeps it) for tracebacks and pdb."""
    source = "\n".join([f"def make({params}):", *body, ""])
    linecache.cache[filename] = len(source), None, source.splitlines(True), filename
    exec(compile(source, filename, "exec"), ns := {})
    return ns["make"]


def _red_params(m):  # mod, then red flat: coefficient j of red[k] is read as r{k}_{j}
    return ", ".join(["mod"] + [f"r{k}_{j}" for k in range(m - 1) for j in range(m)])


def _tup(items):  # tuple source with a comma after each item, so one item unpacks too
    return "(" + "".join(f"{x}, " for x in items) + ")"


def _combine(m, terms, target, ind, base=None):
    """Lines that set `target` ("v = " or "return ") to sum(s * x * y for s, x, y
    in terms): over Z for m = 1, a tuple reduced once through red for m > 1,
    where `base`, if given, names m values the sum is subtracted from."""
    def signed(products):
        return "".join(f" {'+' if s > 0 else '-'} {q}" for s, q in products).lstrip(" +")
    if m == 1:
        return [f"{ind}{target}" + signed([(s, f"{x[0]}*{y[0]}") for s, x, y in terms])]
    lines = [f"{ind}c{k} = " + signed([(s, f"{x[i]}*{y[k - i]}") for s, x, y in terms
                                         for i in range(m) if 0 <= k - i < m])
             for k in range(2 * m - 1)]
    op = " - " if base else " + "
    out = ", ".join("(" + (f"{base[j]} - " if base else "") + f"c{j}"
                    + "".join(f"{op}c{m + k}*r{k}_{j}" for k in range(m - 1)) + ") % mod"
                    for j in range(m))
    return lines + [f"{ind}{target}({out})"]


@functools.cache
def _matrix_factory(m, n):
    """make(mod, *red) -> (matmul, det) on n x n matrices of bare values mod
    `mod` (ints for m = 1, residue tuples for m > 1).  matmul(A, B) unpacks B
    once and computes each row of A*B straight-line (O(n^2 m^2) products of
    source), one reduction per entry.  det(A), None for n > 4, returns the
    bare value of the expansion along row 0 over the minors of the rows
    below, each computed once: over Z and reduced at the end for m = 1,
    reduced once per minor for m > 1."""
    def ent(v, *ij):  # the coefficient names of one entry
        name = v + "_".join(map(str, ij))
        return [f"{name}_{t}" for t in range(m)] if m > 1 else [name]

    def pat(v, *ij):
        return _tup(ent(v, *ij)) if m > 1 else ent(v, *ij)[0]

    mat = _tup(_tup(pat("b", i, j) for j in range(n)) for i in range(n))  # B, or det's A
    src = ["    def matmul(A, B):", f"        {mat} = B", "        out = []",
           f"        for {_tup(pat('a', k) for k in range(n))} in A:"]
    for j in range(n):
        src += _combine(m, [(1, ent("a", k), ent("b", k, j)) for k in range(n)],
                        f"e{j} = ", " " * 12)
    end = " % mod" if m == 1 else ""  # m > 1 values are reduced already
    src += [f"            out.append({_tup(f'e{j}{end}' for j in range(n))})",
            "        return tuple(out)"]
    if n <= 4:
        src += ["    def det(A):", f"        {mat} = A"]
        minors = {(j,): ent("b", n - 1, j) for j in range(n)}  # those of the last row
        for i in range(n - 2, -1, -1):  # minors of rows i.. on column sets of size n - i
            for cols in itertools.combinations(range(n), n - i):
                terms = [((-1) ** k, ent("b", i, j), minors[cols[:k] + cols[k + 1:]])
                         for k, j in enumerate(cols)]
                minors[cols] = ent("d" + "".join(map(str, cols)))
                src += _combine(m, terms, ", ".join(minors[cols]) + " = ", " " * 8)
        d = minors[tuple(range(n))]
        src.append("        return " + (_tup(d) if m > 1 else d[0] + end))
    src.append("    return matmul, " + ("det" if n <= 4 else "None"))
    return _compiled(f"<matrix m={m} n={n}>", _red_params(m), src)


def _red_table(f, mod):
    """x^(m+k) mod the monic f of degree m > 1 and mod `mod`, k = 0..m-2, concatenated."""
    m = len(f) - 1
    red = [-c % mod for c in f[:m]]  # x^m mod f; then x^(m+k+1) = x * x^(m+k)
    while len(red) < m * (m - 1):
        r = red[-m:]
        red += [-r[-1] * f[0] % mod] + [(r[j - 1] - r[-1] * f[j]) % mod for j in range(1, m)]
    return red


def _kernels(f, mod):
    """(red, mul, add, sub, submul, linear, inverse) mod the monic f of degree m > 1
    and mod `mod`."""
    red = _red_table(f, mod)
    return (red, *_mulmod_factory(len(f) - 1)(mod, *red))


def _powmod(a, e, mul):
    """a^e for e >= 0 and a reduced value (a tuple when e may be 0), wasting
    no squaring or product by 1."""
    result = None
    while e:
        if e & 1:
            result = a if result is None else mul(result, a)
        e >>= 1
        if e:
            a = mul(a, a)
    return (1,) + (0,) * (len(a) - 1) if result is None else result


def is_irreducible(coeffs, p):
    """Rabin's test of a monic polynomial f of degree m over Z/p: x^(p^m) ==
    x mod f, and x^(p^(m/l)) - x is a unit mod f for each prime l | m.  Once
    the first holds, F_p[x]/(f) is a product of fields F_{p^d} with d | m, so
    g is a unit exactly when g^(p^m - 1) == 1, and no gcd is needed."""
    f = tuple(coeffs)
    m = len(f) - 1
    if m < 1 or f[-1] != 1:
        return False
    if m == 1:
        return True
    _, mul, _, sub, *_ = _kernels(f, p)
    x, one, q = (0, 1) + (0,) * (m - 2), (1,) + (0,) * (m - 1), p ** m
    return _powmod(x, q, mul) == x and all(
        _powmod(sub(_powmod(x, p ** (m // ell), mul), x), q - 1, mul) == one
        for ell in _prime_factors(m))


@functools.cache
def default_modulus(p, m):
    """First monic irreducible of degree m over Z/p, in base-p order (the order
    of FieldDescriptor.elements() on the lower coefficients), sought once per (p, m)."""
    candidates = (t[::-1] + (1,) for t in itertools.product(range(p), repeat=m))
    return next(f for f in candidates if is_irreducible(f, p))


# Upper bounds of the ring parameters, checked before anything is generated:
# W_N(F_{p^m}) at the top of every range builds and binds its codecs in under 1 s.
# nr = n*r bounds the strata (strata.py), whose poset at nr = 36 builds in 0.5 s.
BOUNDS = {"p": 256, "m": 6, "N": 64, "nr": 36}


def _check_bound(name, value):
    if value > BOUNDS[name]:
        raise BoundError(f"{name} = {value} exceeds the bound {name} <= {BOUNDS[name]}")


class FieldDescriptor:
    """The finite field F_{p^m}, presented as F_p[x]/(default_modulus(p, m)):
    the field is unique up to isomorphism, so (p, m) names it."""

    __slots__ = ("p", "m", "q", "modulus", "key", "_mul")

    def __init__(self, p, m=1):
        p, m = operator.index(p), operator.index(m)
        _check_bound("p", p)
        _check_bound("m", m)
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if m < 1:
            raise ValueError("extension degree m must be >= 1")
        self.p = p
        self.m = m
        self.q = p ** m
        self.modulus = modulus = (0, 1) if m == 1 else default_modulus(p, m)
        self.key = (p, m, modulus)
        self._mul = _kernels(modulus, p)[1] if m > 1 else None

    def __eq__(self, other):
        return isinstance(other, FieldDescriptor) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __reduce__(self):  # the kernel is a closure: rebuild, do not pickle
        return FieldDescriptor, (self.p, self.m)

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
        if (type(coeffs) is tuple and len(coeffs) == self.m
                and all(type(c) is int and 0 <= c < self.p for c in coeffs)):
            return coeffs  # already canonical, as the ring's own digits are
        if isinstance(coeffs, int):
            coeffs = (coeffs,) if self.m == 1 else (coeffs,) + (0,) * (self.m - 1)
        ints = tuple(map(int, coeffs := tuple(coeffs)))
        if ints != coeffs:  # int() truncates 2.9 and parses "2"
            raise ValueError("coefficients must be integers")
        if len(ints) != self.m:
            raise ValueError(f"expected {self.m} coefficients")
        if any(c < 0 or c >= self.p for c in ints):
            raise ValueError(f"coefficients must lie in [0, {self.p})")
        return ints

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
        return self._mul(a, b)

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.m == 1:
            return (pow(a[0], e, self.p),)
        return _powmod(a, e, self._mul)

    def inv(self, a):
        if not any(a):
            raise ZeroDivisionError("inverse of zero field element")
        return self.pow(a, self.q - 2)
