"""The four benchmark workloads and the checks on their outputs.

Each workload turns the seed into an endless sequence of rounds.  A round is
a list of item inputs with a fixed composition (the same parameter grid in
the same order every round), so throughput per round does not depend on how
many rounds a run gets through.  `run` is the timed item; `check` and
`finish` verify outputs outside the timed region.  Why each workload exists
is written in README.md next to this file.
"""

import random
from types import SimpleNamespace

import wittlat as W
from wittlat import GroupShape, WittElem, WittMat, WittRing

from spans import CountingRandom

def make_api(wrap):
    """The public wittlat calls the workloads make, each under its span name."""
    return SimpleNamespace(
        from_ints=wrap("matrix.from_ints", WittMat.from_ints),
        mat_mul=wrap("matrix.mul", WittMat.__mul__),
        divisor_type=wrap("snf.divisor_type", W.divisor_type),
        snf=wrap("snf.snf", W.snf),
        sample_cover=wrap("strata.sample_cover", W.sample_cover),
        sample_group=wrap("strata.sample_group", W.sample_group),
        sample_orbit=wrap("strata.sample_orbit", W.sample_orbit),
        classify=wrap("strata.classify", W.classify),
        in_cover=wrap("strata.in_cover", W.in_cover),
        valuation_predicate=wrap("strata.valuation_predicate", W.valuation_predicate),
        in_orbit_closure=wrap("strata.in_orbit_closure", W.in_orbit_closure),
        enumerate_strata=wrap("strata.enumerate_strata", W.enumerate_strata),
        digits=wrap("witt.digits", WittElem.digits),
        from_digits=wrap("witt.from_digits", WittRing.from_digits),
        teichmuller=wrap("witt.teichmuller", WittRing.teichmuller),
        inverse=wrap("witt.inverse", WittElem.inverse),
        degeneration_chain=wrap("degeneration.degeneration_chain", W.degeneration_chain),
        dim_report=wrap("dimension.dim_report", W.dim_report),
    )


# every span name, in make_api order, and the modules they belong to
SPANS = tuple(vars(make_api(lambda name, fn: name)).values())
LAYER_MODULES = tuple(dict.fromkeys(name.split(".")[0] for name in SPANS))


def _vp(x, p, cap):
    """p-adic valuation of an integer, capped at `cap` (and `cap` for 0)."""
    x = abs(int(x))
    if x == 0:
        return cap
    v = 0
    while x % p == 0 and v < cap:
        x //= p
        v += 1
    return v


class Workload:
    name = ""
    min_rounds = 1    # rounds a run always completes, whatever --seconds says

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(f"{self.name}-{seed}")
        self.setup()

    def setup(self):
        """Rings and per-run state: the set-up before the first item."""

    def rounds(self):
        raise NotImplementedError

    def run(self, api, inp):
        raise NotImplementedError

    def check(self, inp, out):
        raise NotImplementedError

    def finish(self):
        """Checks made after the timed loop: (failed items, global checks
        passed, extra metrics; those named in BENCHMARK.json are reported)."""
        return 0, True, {}


class Census(Workload):
    """Divisor types of random square matrices over Z/p^N, N = n + 1."""

    name = "census"
    GRID = tuple((p, n) for p in (2, 3, 5) for n in range(2, 7))
    PER_ROUND = 20
    NEAR_SINGULAR = 0.25
    ORACLE_SHARE = 1 / 32
    ORACLE_CAP = 240
    min_rounds = 2

    def setup(self):
        self.rings = [(n, W.witt_ring(p, n + 1)) for p, n in self.GRID]
        self.oracle_items = []

    def _near_singular(self, rows, p, N):
        rng, n = self.rng, len(rows)
        pN = p ** N
        kind = rng.randrange(3)
        if kind == 0:
            rows[rng.randrange(n)] = [0] * n
        elif kind == 1:
            i, s = rng.randrange(n), p ** rng.randrange(1, N)
            rows[i] = [x * s % pN for x in rows[i]]
        else:
            for _ in range(rng.randrange(1, n * n)):
                i, j = rng.randrange(n), rng.randrange(n)
                rows[i][j] = rows[i][j] * p ** rng.randrange(1, N + 1) % pN

    def rounds(self):
        rng = self.rng
        while True:
            batch = []
            for n, ring in self.rings:
                for _ in range(self.PER_ROUND):
                    # entries uniform in [0, p^N), as `wittlat census` draws them
                    rows = [[rng.randrange(ring.pN) for _ in range(n)] for _ in range(n)]
                    if rng.random() < self.NEAR_SINGULAR:
                        self._near_singular(rows, ring.p, ring.N)
                    batch.append((ring, rows, rng.random() < self.ORACLE_SHARE))
            yield batch

    def run(self, api, inp):
        ring, rows, _ = inp
        return api.divisor_type(api.from_ints(ring, rows))

    def check(self, inp, out):
        ring, rows, oracle = inp
        e = out.exponents
        ok = (len(e) == len(rows) and all(0 <= x <= ring.N for x in e)
              and all(e[k] >= e[k + 1] for k in range(len(e) - 1)))
        if ok and oracle and len(self.oracle_items) < self.ORACLE_CAP:
            self.oracle_items.append((ring.p, ring.N, rows, e))
        return ok

    def finish(self):
        # Smith form over Z of the integer lift; over Z/p^N the exponents
        # are min(v_p(d_k), N) of its invariant factors d_k.
        from sympy import Matrix, ZZ
        from sympy.matrices.normalforms import smith_normal_form
        failed = 0
        for p, N, rows, got in self.oracle_items:
            S = smith_normal_form(Matrix(rows), domain=ZZ)
            want = sorted((_vp(S[k, k], p, N) for k in range(len(rows))), reverse=True)
            failed += tuple(want) != tuple(got)
        return failed, bool(self.oracle_items), {"census.oracle_items": len(self.oracle_items)}


def _expected_attempts(q, n):
    """q^{n^2} / |GL_n(F_q)|: mean draws of a uniform matrix per unit determinant."""
    out = 1.0
    for k in range(1, n + 1):
        out /= 1 - q ** -k
    return out


def _divisors_from_minors(mins):
    """Descending exponents from minimal k x k minor valuations, k = 1..n
    (valid while the total stays below N, as on the cover variety)."""
    asc = [b - a for a, b in zip((0,) + mins[:-1], mins)]
    return tuple(reversed(asc))


class StrataCover(Workload):
    """The loop of `verify --suite strata` and acceptance criterion 4."""

    name = "strata_cover"
    # Criterion 4 samples (2,2,2) and (3,3,1).  The three n = 3, r = 1 cells
    # put the median item in the middle of one cost cluster, not in the gap
    # between the n = 2 and n = 3 items.
    GRID = ((2, 2, 1), (2, 2, 2), (2, 3, 1), (3, 3, 1), (5, 3, 1), (2, 3, 2), (2, 4, 1))
    PER_ROUND = 4
    min_rounds = 4
    PREFIX_ITEMS = min_rounds * len(GRID) * PER_ROUND  # where predicates are counted

    def setup(self):
        self.rings = [(W.witt_ring(p, n * r + 1), n, r) for p, n, r in self.GRID]
        self.k = 0
        self.predicate_checks = self.predicate_violations = 0
        self.group_attempts = self.group_accepts = 0
        self.expected_attempts = 0.0
        self.cover_draws = self.cover_calls = 0

    def rounds(self):
        rng = self.rng
        while True:
            yield [(ring, n, r, rng.getrandbits(63))
                   for ring, n, r in self.rings for _ in range(self.PER_ROUND)]

    def run(self, api, inp):
        ring, n, r, seed = inp
        nr = n * r
        rng = CountingRandom(seed)
        A = api.sample_cover(ring, n, r, rng)
        cover_draws = rng.draws
        report = api.classify(A, r)
        member = api.in_cover(A, r)
        pred = [api.valuation_predicate(A, i) for i in range(nr // 2 + 1)]
        closure = [api.in_orbit_closure(A, i) for i in range(nr // 2 + 1)]
        g = api.sample_group(ring, n, GroupShape.FULL, rng)
        h = api.sample_group(ring, n, GroupShape.FULL, rng)
        moved = api.divisor_type(api.mat_mul(api.mat_mul(g, A), h))
        return SimpleNamespace(A=A, report=report, member=member, pred=pred,
                               closure=closure, g=g, h=h, moved=moved,
                               cover_draws=cover_draws,
                               group_draws=rng.draws - cover_draws)

    def check(self, inp, out):
        ring, n, r, _ = inp
        nr = n * r
        k, self.k = self.k, self.k + 1
        if k < self.PREFIX_ITEMS:
            self.predicate_checks += sum(out.pred)
            self.predicate_violations += sum(p and not c for p, c in zip(out.pred, out.closure))
        self.cover_draws += out.cover_draws
        self.cover_calls += 1
        self.group_attempts += out.group_draws // (n * n)
        self.group_accepts += 2
        self.expected_attempts += 2 * _expected_attempts(ring.p, n)
        rep = out.report
        gamma = _divisors_from_minors(W.minor_valuations(out.A))
        top = gamma[0]
        pred_i = [i for i, ok in enumerate(out.pred) if ok]
        return (rep.divisors.exponents == gamma and sum(gamma) == nr
                and out.member and rep.in_Xr and rep.stratum_index == nr - top
                and out.closure == [top <= nr - i for i in range(nr // 2 + 1)]
                and rep.deepest_closure_i == max(i for i in range(nr // 2 + 1) if top <= nr - i)
                and rep.pred_val_i == (pred_i[-1] if pred_i else None)
                and out.moved == rep.divisors
                and out.g.det().is_unit() and out.h.det().is_unit()
                and out.group_draws % (n * n) == 0)

    def finish(self):
        # The counting RNG must leave the sampled matrices unchanged.
        same = True
        for ring, n, r, seed in next(StrataCover(self.seed).rounds())[:6]:
            outs = []
            for rng in (CountingRandom(seed), random.Random(seed)):
                outs.append((W.sample_cover(ring, n, r, rng),
                             W.sample_group(ring, n, GroupShape.FULL, rng)))
            same = same and outs[0] == outs[1]
        metrics = {
            "strata.predicate_checks": self.predicate_checks,
            "strata.predicate_violations": self.predicate_violations,
            "strata.sample_group.draws_per_accept": self.group_attempts / self.group_accepts,
            "strata.sample_group.draws_per_accept_theory": self.expected_attempts / self.group_accepts,
            "strata.sample_cover.draws_per_call": self.cover_draws / self.cover_calls,
        }
        return 0, same and self.k >= self.PREFIX_ITEMS, metrics


class Extension(Workload):
    """Orbit sampling, Smith form with transforms, digit codecs and
    degeneration chains over W_N(F_{p^m}) with m > 1."""

    name = "extension"
    GRID = tuple((p, m, n, r) for p, m in ((2, 2), (3, 2), (2, 3))
                 for n, r in ((2, 1), (3, 1), (2, 2)))
    min_rounds = 2

    def setup(self):
        self.rings = [(W.witt_ring(p, n * r + 1, m), W.enumerate_strata(n, r).strata,
                       W.regular_cochar(n, r)) for p, m, n, r in self.GRID]

    def rounds(self):
        # every stratum of every ring once per round, with fresh orbit samples
        rng = self.rng
        while True:
            batch = []
            for ring, strata, regular in self.rings:
                for gamma in strata:
                    t = (0,) * ring.m
                    while not any(t):
                        t = tuple(rng.randrange(ring.p) for _ in range(ring.m))
                    batch.append((ring, gamma, regular, rng.getrandbits(63), t))
            yield batch

    def run(self, api, inp):
        ring, gamma, regular, seed, t = inp
        A = api.sample_orbit(ring, gamma, random.Random(seed))
        res = api.snf(A)
        entries = [e for row in res.left.rows for e in row]
        back = [api.from_digits(ring, api.digits(e)) for e in entries]
        units = [e for e in entries if e.is_unit()]
        inverses = [api.inverse(u) for u in units]
        teich = [api.teichmuller(ring, u.residue()) for u in units]
        chain = api.degeneration_chain(ring, gamma, regular, t)
        return SimpleNamespace(A=A, res=res, entries=entries, back=back, units=units,
                               inverses=inverses, teich=teich, chain=chain)

    def check(self, inp, out):
        ring, gamma, regular, _, _ = inp
        res, q = out.res, ring.field.q
        if res.divisors != gamma:
            return False
        if res.left * out.A * res.right != W.p_power_diagonal(ring, gamma.exponents):
            return False
        if not (res.left.det().is_unit() and res.right.det().is_unit()):
            return False
        if out.back != out.entries:
            return False
        if any(u * v != ring.one for u, v in zip(out.units, out.inverses)):
            return False
        if any(x.residue() != u.residue() or x ** q != x for u, x in zip(out.units, out.teich)):
            return False
        chain = out.chain
        if gamma == regular:
            return chain == []
        links = all(a.lower == b.upper for a, b in zip(chain, chain[1:]))
        return (links and chain[0].upper == regular and chain[-1].lower == gamma
                and all(W.divisor_type(s.deformed) == s.upper for s in chain))


def partition_count(total, parts):
    """Partitions of `total` into at most `parts` parts (counting recurrence)."""
    ways = [1] + [0] * total
    for k in range(1, parts + 1):
        for s in range(k, total + 1):
            ways[s] += ways[s - k]
    return ways[total]


def brylawski_covers(strata):
    """Hasse covers (lo, hi) of dominance on partitions with at most n parts.

    Brylawski (1973): lam covers mu iff mu = lam - e_i + e_j with i < j and
    either j = i + 1 or lam_i = lam_j + 2.
    """
    index = {c.exponents: k for k, c in enumerate(strata)}
    covers = set()
    for hi, c in enumerate(strata):
        lam = c.exponents
        n = len(lam)
        for i in range(n):
            for j in range(i + 1, n):
                if j != i + 1 and lam[i] != lam[j] + 2:
                    continue
                mu = list(lam)
                mu[i] -= 1
                mu[j] += 1
                lo = index.get(tuple(mu))
                if lo is not None:
                    covers.add((lo, hi))
    return covers


class Poset(Workload):
    """Dominance posets of the strata and dimension reports of every stratum."""

    name = "poset"
    # Every round is one shuffled pass over the list.  With 17 posets the
    # median lies among the copies of the ninth cheapest, (4, 3), whose cost
    # is at least twice away from its neighbours', and p95 among those of
    # the largest, (6, 4), whatever the number of passes.
    POSETS = ((2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3),
              (5, 3), (5, 4), (6, 2), (6, 3), (6, 4), (7, 2), (7, 3), (8, 2))
    def setup(self):
        self.calls = self.strata = self.covers = 0

    def rounds(self):
        while True:
            batch = list(self.POSETS)
            self.rng.shuffle(batch)
            yield batch

    def run(self, api, inp):
        n, r = inp
        poset = api.enumerate_strata(n, r)
        return poset, [api.dim_report(g, r) for g in poset.strata]

    def check(self, inp, out):
        n, r = inp
        poset, dims = out
        self.calls += 1
        self.strata += len(poset.strata)
        self.covers += len(poset.hasse)
        return (len(poset.strata) == partition_count(n * r, n)
                and set(poset.hasse) == brylawski_covers(poset.strata)
                and len(poset.hasse) == len(set(poset.hasse))
                and all(dims[hi].dim_matrix_orbit > dims[lo].dim_matrix_orbit
                        for lo, hi in poset.hasse))

    def finish(self):
        return 0, True, {
            "strata.enumerate_strata.strata_per_call": self.strata / self.calls,
            "strata.enumerate_strata.covers_per_call": self.covers / self.calls,
        }


WORKLOADS = {w.name: w for w in (Census, StrataCover, Extension, Poset)}
