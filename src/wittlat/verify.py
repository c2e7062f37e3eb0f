"""Machine-checkable property suites behind the `verify` CLI command.

Each suite returns a structured report: per-check sample counts and
violation examples with reproducer seeds.  A check marked informational
never fails the suite; it exists to surface sampled counterexample
candidates for containments that are only chart-local.
"""

import random

from .degeneration import transfer_witness
from .dimension import (GroupShape, complete_intersection_check,
                        dim_lattice_orbit, dim_matrix_orbit,
                        dim_matrix_orbit_closed_form, stabilizer_dim,
                        tiny_exhaustive_census)
from .matrix import mat_to_obj, p_power_diagonal
from .snf import divisor_type, minor_valuations, snf
from .strata import _height, classify, sample_cover, sample_group, subregular_cochar
from .witt import witt_ring

DEFAULT_SEED = 1729
FAC_MAX_TOTAL = 4  # suite_fac runs every r1 >= rj with r1 + rj <= this


def _child_seed(seed, i):
    # deterministic splitmix-style derivation, independent of sharding
    return (seed * 0x9E3779B97F4A7C15 + i * 0xBF58476D1CE4E5B9 + 0x632BE59BD9B4E019) % (1 << 63)


class _Check:
    def __init__(self, name, informational=False):
        self.name = name
        self.informational = informational
        self.samples = 0
        self.violations = 0
        self.examples = []

    def record(self, ok, example=None):
        self.samples += 1
        if not ok:
            self.violations += 1
            if example is not None and len(self.examples) < 3:
                self.examples.append(example)

    def to_obj(self):
        return {
            "name": self.name,
            "samples": self.samples,
            "violations": self.violations,
            "passed": self.violations == 0,
            "informational": self.informational,
            "examples": self.examples,
        }


def _report(suite, params, checks):
    return {
        "suite": suite,
        "params": params,
        "checks": [c.to_obj() for c in checks],
        "ok": all(c.violations == 0 for c in checks if not c.informational),
    }


def suite_witt(p=2, m=1, N=3, samples=300, seed=DEFAULT_SEED):
    ring = witt_ring(p, N, m)
    rng = random.Random(_child_seed(seed, 0))
    axioms = _Check("ring_axioms")
    teich = _Check("teichmuller_multiplicative_section")
    val = _Check("valuation_rules")
    vf = _Check("frobenius_verschiebung")
    dig = _Check("digit_roundtrip")
    orac = _Check("integer_oracle") if m == 1 else None
    fld = ring.field
    for k in range(samples):
        a, b, c = ring.random(rng), ring.random(rng), ring.random(rng)
        ok = ((a + b) + c == a + (b + c) and a + b == b + a
              and (a * b) * c == a * (b * c) and a * b == b * a
              and a * (b + c) == a * b + a * c
              and a + ring.zero == a and a * ring.one == a
              and a + (-a) == ring.zero)
        axioms.record(ok, {"seed_index": k})
        x, y = fld.random(rng), fld.random(rng)
        tm = (ring.teichmuller(fld.mul(x, y)) == ring.teichmuller(x) * ring.teichmuller(y)
              and ring.teichmuller(x).residue() == x)
        teich.record(tm, {"x": list(x), "y": list(y)})
        va, vb = a.valuation(), b.valuation()
        vok = (a * b).valuation() == min(N, va + vb)
        vok = vok and (a + b).valuation() >= min(va, vb)
        if va != vb:
            vok = vok and (a + b).valuation() == min(va, vb)
        val.record(vok, {"seed_index": k})
        fv = (a.verschiebung().frobenius() == ring.from_int(p) * a
              and a.verschiebung().digits() == (fld.zero,) + a.digits()[:-1])
        vf.record(fv, {"seed_index": k})
        dig.record(ring.from_digits(a.digits()) == a, {"seed_index": k})
        if orac is not None:
            ia, ib = a.to_int(), b.to_int()
            iok = ((a + b).to_int() == (ia + ib) % ring.pN
                   and (a * b).to_int() == (ia * ib) % ring.pN)
            if a.is_unit():
                iok = iok and a.inverse().to_int() == pow(ia, -1, ring.pN)
            orac.record(iok, {"a": ia, "b": ib})
    checks = [axioms, teich, val, vf, dig] + ([orac] if orac else [])
    return _report("witt", {"p": p, "m": m, "N": N, "samples": samples, "seed": seed}, checks)


def suite_snf(p=2, m=1, n=2, r=1, samples=200, seed=DEFAULT_SEED):
    nr = _height(n, r)
    ring = witt_ring(p, nr + 1, m)
    rng = random.Random(_child_seed(seed, 1))
    roundtrip = _Check("orbit_roundtrip_recovers_divisors")
    recon = _Check("transform_reconstruction")
    sumrule = _Check("divisor_sum_equals_det_valuation")
    minors = _Check("determinantal_minor_oracle")
    for k in range(samples):
        A = sample_cover(ring, n, r, rng)
        gamma, res = divisor_type(A), snf(A)  # gamma is the type A was sampled with
        ok = res.divisors == gamma  # a failure carries A, for classify --input
        roundtrip.record(ok, {"gamma": list(gamma.exponents),
                              "got": list(res.divisors.exponents), "seed_index": k,
                              "matrix": None if ok else mat_to_obj(A)})
        ok = res.left * A * res.right == p_power_diagonal(ring, res.divisors.exponents)
        recon.record(ok, {"seed_index": k, "matrix": None if ok else mat_to_obj(A)})
        sumrule.record(res.divisors.total == A.det().valuation(),
                       {"seed_index": k})
        if n <= 3:
            mv = minor_valuations(A)
            exps = res.divisors.exponents
            want = tuple(min(ring.N, sum(exps[n - kk:])) for kk in range(1, n + 1))
            minors.record(mv == want, {"seed_index": k, "minors": list(mv)})
    checks = [roundtrip, recon, sumrule] + ([minors] if n <= 3 else [])
    return _report("snf", {"p": p, "m": m, "n": n, "r": r,
                           "samples": samples, "seed": seed}, checks)


def suite_fac(p=2, m=1):
    ident = _Check("four_factor_identity")
    divs = _Check("deformation_divisor_type")
    for r1 in range(FAC_MAX_TOTAL + 1):
        for rj in range(min(r1, FAC_MAX_TOTAL - r1) + 1):
            ring = witt_ring(p, r1 + rj + 1, m)
            nonzero = [t for t in ring.field.elements() if any(t)]
            for b in range(rj + 1):
                for t in nonzero:
                    w = transfer_witness(ring, r1, rj, b, t)
                    f0, f1, f2, f3 = w.factors
                    ident.record(f0 * f1 * f2 * f3 == w.target,
                                 {"r1": r1, "rj": rj, "b": b, "t": list(t)})
                    got = divisor_type(w.target).exponents
                    want = tuple(sorted((r1 + b, rj - b), reverse=True))
                    divs.record(got == want,
                                {"r1": r1, "rj": rj, "b": b, "t": list(t),
                                 "got": list(got)})
    return _report("fac", {"p": p, "m": m, "max_total": FAC_MAX_TOTAL}, [ident, divs])


def suite_strata(p=2, m=1, n=2, r=1, samples=300, seed=DEFAULT_SEED):
    nr = _height(n, r)
    ring = witt_ring(p, nr + 1, m)
    rng = random.Random(_child_seed(seed, 2))
    implication = _Check("valuation_predicate_implies_closure")
    converse = _Check("closure_implies_valuation_predicate", informational=True)
    invariance = _Check("two_sided_invariance_of_closure")
    grading = _Check("stratum_index_bound")
    determinism = _Check("fixed_seed_determinism")
    for k in range(samples):
        A = sample_cover(ring, n, r, random.Random(_child_seed(seed, 100 + k)))
        # the report's ranges answer valuation_predicate(A, i) and in_orbit_closure(A, i)
        rep = classify(A, r)
        div = rep.divisors
        a = nr - div.exponents[0]
        grading.record(0 <= a <= (n - 1) * r, {"divisors": list(div.exponents)})
        for i in range(nr // 2 + 1):
            pred = rep.pred_val_i is not None and i <= rep.pred_val_i
            clo = i <= rep.deepest_closure_i
            if pred:
                implication.record(clo, {
                    "i": i, "divisors": list(div.exponents),
                    "seed": _child_seed(seed, 100 + k),
                    "matrix": mat_to_obj(A) if not clo else None})
            if clo:
                converse.record(pred, {"i": i, "seed": _child_seed(seed, 100 + k)})
        g = sample_group(ring, n, GroupShape.FULL, rng)
        h = sample_group(ring, n, GroupShape.FULL, rng)
        invariance.record(divisor_type(g * A * h) == div, {"seed_index": k})
    s1 = sample_cover(ring, n, r, random.Random(_child_seed(seed, 999)))
    s2 = sample_cover(ring, n, r, random.Random(_child_seed(seed, 999)))
    determinism.record(s1 == s2)
    checks = [implication, converse, invariance, grading, determinism]
    return _report("strata", {"p": p, "m": m, "n": n, "r": r,
                              "samples": samples, "seed": seed}, checks)


def suite_dims():
    full = _Check("stabilizer_full_closed_form")
    pp = _Check("stabilizer_parabolic_closed_form")
    bb = _Check("stabilizer_iwahori_closed_form")
    orbit = _Check("orbit_dimension_closed_form")
    lat = _Check("lattice_orbit_even_and_chain")
    ci = _Check("complete_intersection_counts")
    for n in range(2, 5):
        for r in range(1, 4):
            nr = n * r
            N = nr + 1
            prev = None
            for i in range(nr // 2 + 1):
                gamma = subregular_cochar(n, r, i)
                stab = stabilizer_dim(gamma, (GroupShape.FULL, GroupShape.FULL), N)
                full.record(stab == n * n * N + nr + 2 * i,
                            {"n": n, "r": r, "i": i, "got": stab})
                stab_p = stabilizer_dim(gamma, (GroupShape.P, GroupShape.P_MINUS), N)
                pp.record(stab_p == N * ((n - 1) ** 2 + 1) + nr + 2 * i,
                          {"n": n, "r": r, "i": i, "got": stab_p})
                stab_b = stabilizer_dim(gamma, (GroupShape.B, GroupShape.B_MINUS), N)
                bb.record(stab_b == n * n * nr + n + nr + 2 * i,
                          {"n": n, "r": r, "i": i, "got": stab_b})
                dim_full = dim_matrix_orbit(gamma, N)
                dim_pp = dim_matrix_orbit(gamma, N, (GroupShape.P, GroupShape.P_MINUS))
                dim_bb = dim_matrix_orbit(gamma, N, (GroupShape.B, GroupShape.B_MINUS))
                want = dim_matrix_orbit_closed_form(i, n, r)
                orbit.record(dim_full == want == dim_pp == dim_bb,
                             {"n": n, "r": r, "i": i,
                              "got": [dim_full, dim_pp, dim_bb]})
                dl = dim_lattice_orbit(gamma, r)
                ok = dl % 2 == 0
                if i == 0:
                    ok = ok and dl == (n - 1) * n * r
                if prev is not None:
                    ok = ok and prev - dl == 2
                prev = dl
                lat.record(ok, {"n": n, "r": r, "i": i, "got": dl})
                ci.record(complete_intersection_check(i, n, r)
                          and not complete_intersection_check(
                              i, n, r, generator_count=nr + 2 * i + 1),
                          {"n": n, "r": r, "i": i})
    return _report("dims", {"n": "2..4", "r": "1..3"},
                   [full, pp, bb, orbit, lat, ci])


def _tiny_checks(census):
    """The verdict on a tiny census, shared by `verify --suite tiny` and
    `enumerate --tiny`."""
    order = _Check("group_order")
    order.record(census.group_order == 1536, {"got": census.group_order})
    orbits = _Check("orbit_stabilizer_counts")
    orbits.record(census.orbit_counts_ok, {"stab_pairs":
                                           {str(k): v for k, v in census.stab_pairs.items()}})
    part = _Check("cover_partition")
    part.record(census.partition_ok and census.cover_size == 672,
                {"cover_size": census.cover_size})
    total = _Check("histogram_total")
    total.record(sum(census.histogram.values()) == census.total_matrices == 4096,
                 {"total": sum(census.histogram.values())})
    return [order, orbits, part, total]


def suite_tiny(jobs=1):
    return _report("tiny", {"jobs": jobs}, _tiny_checks(tiny_exhaustive_census(jobs=jobs)))


SUITES = {
    "witt": suite_witt,
    "snf": suite_snf,
    "fac": suite_fac,
    "strata": suite_strata,
    "dims": suite_dims,
    "tiny": suite_tiny,
}
