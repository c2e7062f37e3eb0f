import collections
import gc
import hashlib
import itertools
import json
import pickle
import random
import time

import numpy as np
import pytest
from sympy.utilities.iterables import partitions

from wittlat.dimension import (dim_lattice_orbit, dim_matrix_orbit, dim_matrix_orbit_closed_form,
                               dim_report, regular_lattice_dim, stabilizer_dim)
from wittlat.errors import (BoundError, NotAUnitError, NotInCoverError, ParameterMismatchError,
                            ShapeError)
from wittlat.field import BOUNDS
from wittlat.matrix import (GroupShape, WittMat, identity, in_group, mat_to_obj,
                            p_power_diagonal)
from wittlat import strata as strata_mod
from wittlat.degeneration import degeneration_chain
from wittlat.snf import Cochar, divisor_type, minor_valuations
from wittlat.strata import (_ordered_strata, _partitions, classify, dominance_leq, enumerate_strata,
                            in_cover, in_orbit_closure, regular_cochar,
                            sample_cover, sample_group, sample_orbit,
                            subregular_cochar, valuation_predicate)
from wittlat.witt import WittElem, witt_ring

from counting import CountingRandom, counting


def test_cochar_families():
    assert regular_cochar(3, 2).exponents == (6, 0, 0)
    assert subregular_cochar(3, 2, 1).exponents == (5, 1, 0)
    assert subregular_cochar(2, 2, 2).exponents == (2, 2)
    with pytest.raises(ValueError, match=r"^index i must lie in \[0, 1\]$"):
        subregular_cochar(2, 1, 2)  # i > nr/2
    # r = 0 gave Cochar(2, (0, 0)); n = 1 failed later, on the exponent count
    for n, r in ((2, 0), (1, 1), (0, 1)):
        for call in (lambda: subregular_cochar(n, r, 0), lambda: regular_cochar(n, r)):
            with pytest.raises(ValueError, match="^need n >= 2 and r >= 1$"):
                call()


def test_in_cover():
    R = witt_ring(2, 3)
    assert in_cover(p_power_diagonal(R, (2, 0)), 1)
    assert not in_cover(identity(R, 2), 1)
    rng = random.Random(0)
    mu = regular_cochar(2, 1)
    for _ in range(30):
        assert in_cover(sample_orbit(R, mu, rng), 1)
    with pytest.raises(ParameterMismatchError):
        in_cover(identity(R, 2), 2)


def test_valuation_predicate_examples():
    n, r = 2, 2
    R = witt_ring(2, n * r + 1)
    gamma1 = p_power_diagonal(R, subregular_cochar(n, r, 1).exponents)
    assert valuation_predicate(gamma1, 1)
    mu = p_power_diagonal(R, regular_cochar(n, r).exponents)
    assert valuation_predicate(mu, 0)
    # diag(1, p^{nr}): corner entry is a unit, corner minor is zero, so the
    # predicate holds at i = 1; diag(p^{nr}, 1) fails it since v(c) = 0
    swapped = p_power_diagonal(R, (0, n * r))  # not dominant, still a matrix
    assert valuation_predicate(swapped, 1)
    assert not valuation_predicate(mu, 1)
    with pytest.raises(ValueError):
        valuation_predicate(mu, n * r)


def test_predicate_and_closure_share_the_parameter_check():
    # N - 1 = 3 is not a multiple of n = 2: both reject the ring length
    A = WittMat.from_ints(witt_ring(2, 4), [[1, 2], [4, 8]])
    for test in (valuation_predicate, in_orbit_closure):
        with pytest.raises(ParameterMismatchError):
            test(A, 1)
    # r = 0 (the identity over W_1) and n = 1 are outside the contract for all
    # four; the predicates returned True, True at the first and the closure
    # test False at the second
    one = WittMat.from_ints(witt_ring(2, 3), [[4]])
    for A, r, i in ((identity(witt_ring(2, 1), 2), 0, 0), (one, 2, 1)):
        for call in (lambda: valuation_predicate(A, i), lambda: in_orbit_closure(A, i),
                     lambda: in_cover(A, r), lambda: classify(A, r)):
            with pytest.raises(ValueError, match="^need n >= 2 and r >= 1$"):
                call()


@pytest.mark.parametrize("call", [
    lambda A: dim_report(Cochar(2, (2, 0)), 1.0),
    lambda A: valuation_predicate(A, 0.5),
    lambda A: valuation_predicate(A, 1.0),
    lambda A: in_orbit_closure(A, 0.5),
    lambda A: in_orbit_closure(A, 1.0),
    lambda A: in_cover(A, 1.0),
    lambda A: classify(A, 1.0),
    lambda A: enumerate_strata(2, 1.0),
    lambda A: enumerate_strata(2, 0.5),
    lambda A: sample_cover(A.ring, 2, 1.0, 0),
    lambda A: regular_cochar(2, 1.5),
    lambda A: subregular_cochar(2, 1, 0.5),
    # the dimension counts below returned 2.0, 8.0, 3.0, 10.0 and 16.0
    lambda A: dim_lattice_orbit(Cochar(2, (2, 0)), 1.0),
    lambda A: dim_matrix_orbit_closed_form(1, 2, 1.0),
    lambda A: regular_lattice_dim(2, 1.5),
    lambda A: dim_matrix_orbit(Cochar(2, (2, 0)), 3.0),
    lambda A: stabilizer_dim(Cochar(2, (2, 0)), (GroupShape.FULL, GroupShape.FULL), 3.5),
], ids=["dim_report", "predicate", "predicate-integral", "closure", "closure-integral",
        "in_cover", "classify", "enumerate", "enumerate-below-one", "sample_cover",
        "regular", "subregular", "dim_lattice_orbit", "closed_form", "regular_lattice_dim",
        "dim_matrix_orbit", "stabilizer_dim"])
def test_non_integer_heights_and_indices_raise_type_error(call):
    # a float height or index is not read as a number: even 1.0 is rejected
    A = WittMat.from_ints(witt_ring(2, 3), [[2, 1], [0, 2]])
    with pytest.raises(TypeError):
        call(A)


def test_in_orbit_closure_basic():
    n, r = 2, 2
    R = witt_ring(2, n * r + 1)
    rng = random.Random(1)
    strata = enumerate_strata(n, r).strata
    for gamma in strata:
        a = n * r - gamma.exponents[0]
        # a copy, as the sample carries its type: this runs the elimination
        A = WittMat._from_raw(R, sample_orbit(R, gamma, rng)._raw)
        for i in range(n * r // 2 + 1):
            assert in_orbit_closure(A, i) == (a >= i)
    mu = p_power_diagonal(R, regular_cochar(n, r).exponents)
    assert not in_orbit_closure(mu, 1)
    with pytest.raises(NotInCoverError):
        in_orbit_closure(identity(R, 2), 1)


def test_predicate_does_not_imply_closure():
    # Explicit counterexample family: [[p, 1], [0, p^{nr-1}]] satisfies both
    # corner valuation conditions at i = 1 yet lies in the open stratum.
    # Closure membership must therefore be decided by divisor type; the
    # valuation predicate is only a chart-local description.
    for p, n, r in [(2, 2, 1), (2, 2, 2), (3, 2, 2)]:
        nr = n * r
        R = witt_ring(p, nr + 1)
        rows = [[R.p_power(1), R.one], [R.zero, R.p_power(nr - 1)]]
        A = WittMat(R, rows)
        assert in_cover(A, r)
        if nr >= 2:
            assert valuation_predicate(A, 1)
            assert divisor_type(A).exponents == (nr, 0)
            assert not in_orbit_closure(A, 1)


def test_criterion_4_on_every_2x2_matrix_over_z8():
    # Exhaustive n = 2, r = 1 slice of criterion 4 (predicate => closure).  At
    # n = 2 the corner minor is the entry A[1, 1]; closure at i = 1 asks every
    # entry to be a non-unit.  The violations are the type-(2, 0) matrices with
    # p | A[1, 1], v(A[0, 0]) <= 1 and a unit entry: 256 of the 672 in the cover
    # (8/21), none inside the chart where A[1, 1] has the least valuation.
    R = witt_ring(2, 3)
    types, failed, failed_in_chart = collections.Counter(), collections.Counter(), 0
    for a, b, c, d in itertools.product(range(8), repeat=4):
        A = WittMat.from_ints(R, [[a, b], [c, d]])
        if not in_cover(A, 1):
            continue
        gamma = divisor_type(A).exponents
        types[gamma] += 1
        in_chart = R._val(d) == min(map(R._val, (a, b, c, d)))
        for i in (0, 1):
            if valuation_predicate(A, i) and not in_orbit_closure(A, i):
                failed[i, gamma] += 1
                failed_in_chart += in_chart
    assert types == {(2, 0): 576, (1, 1): 96}
    assert failed == {(1, (2, 0)): 256}
    assert failed_in_chart == 0


def test_closure_implies_corner_minor_valuation():
    # the corner minor is one (n-1)-minor, so its valuation dominates the
    # stratum index; this half of the predicate does follow from closure
    n, r = 2, 2
    R = witt_ring(2, n * r + 1)
    rng = random.Random(2)
    for _ in range(200):
        A = sample_cover(R, n, r, rng)
        a = n * r - divisor_type(A).exponents[0]
        assert A.corner_minor().valuation() >= a


def test_enumerate_strata_examples():
    poset = enumerate_strata(2, 1)
    assert [c.exponents for c in poset.strata] == [(2, 0), (1, 1)]
    assert poset.hasse == ((1, 0),)
    poset = enumerate_strata(2, 2)
    assert [c.exponents for c in poset.strata] == [(4, 0), (3, 1), (2, 2)]
    assert poset.hasse == ((1, 0), (2, 1))
    for n, r in [(2, 1), (3, 1), (3, 2), (4, 1)]:
        poset = enumerate_strata(n, r)
        exps = [c.exponents for c in poset.strata]
        assert regular_cochar(n, r).exponents in exps
        if n * r >= 2:
            assert subregular_cochar(n, r, 1).exponents in exps
        # every stratum is a partition of nr with at most n parts
        for e in exps:
            assert sum(e) == n * r and len(e) == n
        # stratum index ranges over [0, (n-1)r]
        assert {n * r - e[0] for e in exps} == set(range((n - 1) * r + 1))


def _dominance_closure_poset(n, r):
    """Independent oracle: partitions from sympy, every pair compared by
    dominance, then a transitive reduction of the strict order."""
    nr = n * r
    strata = []
    for part in partitions(nr, m=n):
        exps = sorted((k for k, mult in part.items() for _ in range(mult)), reverse=True)
        strata.append(Cochar(n, tuple(exps) + (0,) * (n - len(exps))))
    strata.sort(key=lambda c: (nr - c.exponents[0], tuple(-e for e in c.exponents)))
    below = {}
    for a, ca in enumerate(strata):
        for b, cb in enumerate(strata):
            if a != b and dominance_leq(ca, cb):
                below.setdefault(b, set()).add(a)
    hasse = []
    for hi, los in sorted(below.items()):
        for lo in sorted(los):
            if not any(lo in below.get(mid, ()) for mid in los if mid != lo):
                hasse.append((lo, hi))
    return {
        "n": n,
        "r": r,
        "strata": [{"a": nr - c.exponents[0], "exponents": list(c.exponents)}
                   for c in strata],
        "hasse": [list(e) for e in sorted(hasse)],
    }


def test_enumerate_strata_matches_dominance_closure_oracle():
    for n in range(2, 9):
        for r in range(1, 16 // n + 1):
            assert enumerate_strata(n, r).to_obj() == _dominance_closure_poset(n, r), (n, r)


def _brylawski_all_pairs(poset):
    """Oracle: Brylawski's cover rule tried on every pair i < j of every stratum."""
    n = poset.n
    index = {c.exponents: k for k, c in enumerate(poset.strata)}
    hasse = []
    for lam, hi in index.items():
        for i in range(n - 1):
            for j in range(i + 1, n):
                if j == i + 1 or lam[i] == lam[j] + 2:
                    mu = lam[:i] + (lam[i] - 1,) + lam[i + 1:j] + (lam[j] + 1,) + lam[j + 1:]
                    if mu in index:
                        hasse.append((index[mu], hi))
    return tuple(sorted(hasse))


def test_enumerate_strata_block_covers_match_all_pairs():
    # n <= 8 and beyond, where most strata end in zero parts: the cover scan
    # stops at the first of them
    sizes = [(n, r) for n in range(2, 9) for r in range(1, 24 // n + 1)]
    for n, r in sizes + [(12, 1), (16, 1), (20, 1), (9, 2), (12, 2)]:
        poset = enumerate_strata(n, r)
        assert poset.hasse == _brylawski_all_pairs(poset), (n, r)
        for c in poset.strata:
            checked = Cochar(n, c.exponents)
            assert c == checked and hash(c) == hash(checked), c


def _brylawski_down_covers(poset):
    """Oracle in O(S n): Brylawski's rule read from above, one candidate per block
    end i of each lam: j = i + 1 when lam_{i+1} <= lam_i - 2, else the start of the
    block after next if it holds lam_i - 2 (the block between holds lam_i - 1)."""
    n = poset.n
    index = {c.exponents: k for k, c in enumerate(poset.strata)}
    hasse = []
    for lam, hi in index.items():
        for i, top in enumerate(lam):
            if top < 2:
                break
            j = i + 1
            while j < n and lam[j] == top - 1:
                j += 1
            if j < n and lam[j] < top and (j == i + 1 or lam[j] == top - 2):
                mu = list(lam)
                mu[i], mu[j] = top - 1, lam[j] + 1
                hasse.append((index[tuple(mu)], hi))
    return tuple(sorted(hasse))


def test_enumerate_strata_up_covers_match_down_covers_on_large_posets():
    # sizes where the all-pairs oracle is too slow; the covers come out sorted
    # as built, one up-scan per stratum
    for n, r in ((12, 3), (18, 2), (36, 1)):
        poset = enumerate_strata(n, r)
        assert poset.hasse == _brylawski_down_covers(poset), (n, r)


def test_enumerate_strata_up_covers_by_hand():
    def up_covers(n, r, exps):
        poset = enumerate_strata(n, r)
        lo = [c.exponents for c in poset.strata].index(exps)
        return [poset.strata[hi].exponents for low, hi in poset.hasse if low == lo]

    # a block of two: raise its first part, lower its last; a lone 1 before zeros: none
    assert up_covers(5, 1, (2, 2, 1, 0, 0)) == [(3, 1, 1, 0, 0)]
    # single parts: raise one, lower the next; the lex-larger cover comes first
    assert up_covers(3, 2, (3, 2, 1)) == [(4, 1, 1), (3, 3, 0)]


def _partitions_recursive(total, parts, cap):
    """Oracle: the first entry from the largest down, then the tail recursively."""
    if parts == 1:
        if total <= cap:
            yield (total,)
        return
    for first in range(min(total, cap), -1, -1):
        if first * parts < total:
            break
        for rest in _partitions_recursive(total - first, parts - 1, first):
            yield (first,) + rest


def test_partitions_match_recursive_oracle():
    # the oracle's output under a cap is its uncapped output restricted to the
    # tuples whose first (largest) entry fits the cap, so it runs once per
    # (total, parts)
    for total in range(30):
        for parts in range(1, 10):
            full = list(_partitions_recursive(total, parts, total))
            for cap in range(32):
                want = [t for t in full if t[0] <= cap]
                assert list(_partitions(total, parts, cap)) == want, (total, parts, cap)
    # every partition of 30, most of them padded with zeros to 30 parts
    assert list(_partitions(30, 30, 30)) == list(_partitions_recursive(30, 30, 30))


def test_enumerate_strata_large_counts():
    poset = enumerate_strata(6, 4)
    assert len(poset.strata) == 532 and len(poset.hasse) == 1252
    # (36, 1), the largest poset BOUNDS["nr"] admits
    start = time.perf_counter()
    poset = enumerate_strata(36, 1)
    elapsed = time.perf_counter() - start
    assert len(poset.strata) == 17977 and len(poset.hasse) == 58339
    assert elapsed < 1.0, elapsed


def test_poset_allocations_are_pinned():
    # CPython's gen-0 count with gc off is the net number of GC-tracked objects
    # a call leaves alive: noise-free, unlike a timing.  A stratum is one tuple
    # and one slotted Cochar (no instance dict), plus its share of the cover
    # pairs; its dim_report is the record, its dict and its sources dict
    assert not hasattr(Cochar(2, (1, 1)), "__dict__")
    enumerate_strata(6, 4)  # warm any lazy state first
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        poset = enumerate_strata(6, 4)
        mid = gc.get_count()[0]
        reports = [dim_report(g, 4) for g in poset.strata]
        after = gc.get_count()[0]
    finally:
        gc.enable()
    k = len(poset.strata)
    assert k == len(reports) == 532
    assert (mid - before) / k <= 4.6, (mid - before) / k  # 5.53 with a dict per Cochar
    assert (after - mid) / k <= 3.01, (after - mid) / k


def test_poset_records_hold_plain_ints():
    # the caller's n and r are read through operator.index, not stored as given:
    # True printed as `"r": true` and numpy integers did not serialize
    for n, r in ((2, True), (np.int64(2), np.int64(1))):
        obj = enumerate_strata(n, r).to_obj()
        assert json.loads(json.dumps(obj)) == enumerate_strata(2, 1).to_obj()
        assert type(obj["n"]) is int and type(obj["r"]) is int
    c = Cochar(np.int64(2), (1, 1))
    assert json.dumps(c.to_obj()) == '{"n": 2, "exponents": [1, 1]}'
    assert type(c.n) is int and c == Cochar(2, (1, 1))


def test_hasse_edges_are_single_unit_transfers():
    for n, r in [(3, 2), (4, 2)]:
        poset = enumerate_strata(n, r)
        for lo, hi in poset.hasse:
            low = poset.strata[lo].exponents
            high = poset.strata[hi].exponents
            assert dominance_leq(poset.strata[lo], poset.strata[hi])
            diffs = [h - l for h, l in zip(high, low)]
            assert sorted(diffs) == [-1] + [0] * (n - 2) + [1]


def test_dominance_examples():
    assert dominance_leq(Cochar(2, (1, 1)), Cochar(2, (2, 0)))
    g = Cochar(3, (3, 2, 1))
    assert dominance_leq(g, g)
    assert not dominance_leq(Cochar(3, (3, 1, 0)), Cochar(3, (2, 2, 0)))
    # first partial sum passes, second fails: (2,4,4) vs (2,3,4)
    assert not dominance_leq(Cochar(3, (2, 2, 0)), Cochar(3, (2, 1, 1)))
    assert dominance_leq(Cochar(3, (2, 2, 0)), Cochar(3, (3, 1, 0)))
    with pytest.raises(ValueError):
        dominance_leq(Cochar(2, (1, 1)), Cochar(2, (2, 1)))
    with pytest.raises(ValueError):
        dominance_leq(Cochar(2, (1, 1)), Cochar(3, (2, 0, 0)))


def test_closure_downset_matches_dominance():
    # {gamma : stratum index >= i} is exactly the dominance down-set of the
    # index-i subregular vector
    for n, r in [(2, 2), (3, 1), (3, 2)]:
        nr = n * r
        strata = enumerate_strata(n, r).strata
        for i in range(nr // 2 + 1):
            gsr = subregular_cochar(n, r, i)
            for gamma in strata:
                a = nr - gamma.exponents[0]
                assert (a >= i) == dominance_leq(gamma, gsr)


def test_sample_group_contract():
    R = witt_ring(2, 3)
    for shape in GroupShape:
        for seed in range(5):
            A = sample_group(R, 3, shape, seed)
            assert in_group(A, shape)
    # fixed seed determinism
    assert sample_group(R, 3, GroupShape.B, 7) == sample_group(R, 3, GroupShape.B, 7)


def test_sample_orbit_contract():
    R = witt_ring(3, 4)
    rng = random.Random(3)
    strata = enumerate_strata(3, 1).strata
    for gamma in strata:
        A = sample_orbit(R, gamma, rng)
        assert divisor_type(WittMat._from_raw(R, A._raw)) == gamma == divisor_type(A)
    assert sample_orbit(R, strata[0], 11) == sample_orbit(R, strata[0], 11)


# SHA-256 of the structural sampler streams: the raw entries of sample_group for
# B, B_MINUS, P and P_MINUS, each from a fresh Random(seed), and the next
# rng.random() after each, for p in (2, 3), m in (1, 2), n = 1..4 and seeds
# 0..2 over W_3.  A change to what is drawn, in what order, or to how many
# draws a sample takes moves it.
_SAMPLER_STREAM_SHA256 = "980b8edfdcb5b02f49c624c52be201d89c6e58a32d4f3a789beab8735b3d56dd"


def test_structural_sampler_streams_are_pinned():
    shapes = (GroupShape.B, GroupShape.B_MINUS, GroupShape.P, GroupShape.P_MINUS)
    digest = hashlib.sha256()
    for p, m, n, seed in itertools.product((2, 3), (1, 2), range(1, 5), range(3)):
        ring = witt_ring(p, 3, m)
        for shape in shapes:
            rng = random.Random(seed)
            digest.update(repr((sample_group(ring, n, shape, rng)._raw, rng.random())).encode())
    assert digest.hexdigest() == _SAMPLER_STREAM_SHA256


# (getrandbits, randrange) calls of five successive draws from one
# CountingRandom(7), over W_4(F_3) and W_4(F_9) at n = 3 (r = 1 for the
# cover).  The samplers draw through getrandbits alone: the one randrange
# per cover sample picks its stratum.  A draw routed through randrange
# raises the second count.
_SAMPLER_DRAW_COUNTS = {
    (1, "full"): (91, 0), (1, "b"): (57, 0), (1, "p"): (59, 0), (1, "cover"): (198, 5),
    (2, "full"): (116, 0), (2, "b"): (109, 0), (2, "p"): (99, 0), (2, "cover"): (283, 5),
}


def test_sampler_draw_counts_are_pinned():
    samplers = {"full": lambda ring, rng: sample_group(ring, 3, GroupShape.FULL, rng),
                "b": lambda ring, rng: sample_group(ring, 3, GroupShape.B, rng),
                "p": lambda ring, rng: sample_group(ring, 3, GroupShape.P, rng),
                "cover": lambda ring, rng: sample_cover(ring, 3, 1, rng)}
    got = {}
    for m, (name, draw) in itertools.product((1, 2), samplers.items()):
        ring, rng = witt_ring(3, 4, m), CountingRandom(7)
        for _ in range(5):
            draw(ring, rng)
        got[m, name] = (rng.getrandbits_calls, rng.randrange_calls)
    assert got == _SAMPLER_DRAW_COUNTS


class _NoDraws(random.Random):
    def getrandbits(self, k):  # every sampler draw, randrange's included, lands here
        raise AssertionError("a draw was made")


def test_samplers_reject_sizes_below_one_before_any_draw():
    # each raised KeyError(()) from the size-0 kernel lookup, B after its
    # (empty) draws and FULL on its first determinant
    R = witt_ring(2, 3)
    message = "^matrix must be square and nonempty$"
    for n in (0, -1):
        for shape in GroupShape:
            with pytest.raises(ShapeError, match=message):
                sample_group(R, n, shape, _NoDraws(1))
    with pytest.raises(ShapeError, match=message):
        sample_orbit(R, Cochar(0, ()), _NoDraws(1))
    with pytest.raises(ShapeError, match=message):
        sample_orbit(R, Cochar(0, ()), 1)


def _direct_corner(A):
    # the corner valuations from the public readers, bypassing the memo
    R = A.ring
    return R._val(A[0, 0]._v), R._val(A.minor(0, 0)._v)


def test_corner_valuations_are_computed_once_per_matrix():
    # classify and every valuation_predicate on one matrix object share one
    # corner-minor det; a second round makes no ring call at all
    cells = [(p, 1, n, r) for p, n, r in _STRATA_COVER_OP_COUNTS]
    cells += [(3, 2, n, 1) for n in (2, 3, 4)]
    for p, m, n, r in cells:
        R = witt_ring(p, n * r + 1, m)
        for seed in range(4):
            A = sample_cover(R, n, r, seed)
            assert A._corner is None
            with counting(R) as counts:
                classify(A, r)
                for i in range(n * r // 2 + 1):
                    valuation_predicate(A, i)
            assert counts["det"] == 1, (p, m, n, r, seed)
            with counting(R) as again:
                rep = classify(A, r)
                for i in range(n * r // 2 + 1):
                    valuation_predicate(A, i)
            assert again == {}, (p, m, n, r, seed)
            assert A._corner == (rep.val_b, rep.val_c) == _direct_corner(A), (p, m, n, r, seed)


def test_corner_memo_is_not_part_of_the_value():
    R = witt_ring(3, 4)
    A = sample_cover(R, 3, 1, 5)
    classify(A, 1)
    B = WittMat._from_raw(R, A._raw)
    assert A._corner is not None and B._corner is None and B._divisors is None
    assert B == A and hash(B) == hash(A)
    C = pickle.loads(pickle.dumps(A))
    assert C == A == B and hash(C) == hash(B)
    assert valuation_predicate(B, 1) == valuation_predicate(A, 1) == valuation_predicate(C, 1)
    assert B._corner == A._corner == _direct_corner(B)


def test_classify_reports():
    R = witt_ring(2, 3)
    mu = p_power_diagonal(R, (2, 0))
    rep = classify(mu, 1)
    assert rep.to_obj() == {
        "in_Xr": True, "divisors": [2, 0], "stratum_index": 0,
        "val_b": 2, "val_c": 0, "pred_val_i": 0, "deepest_closure_i": 0,
    }
    rep = classify(identity(R, 2), 1)
    assert rep.in_Xr is False and rep.stratum_index is None
    assert rep.val_b == 0 and rep.val_c == 0
    scalar = p_power_diagonal(R, (1, 1))
    rep = classify(scalar, 1)
    assert rep.stratum_index == 1 and rep.deepest_closure_i == 1
    assert rep.pred_val_i == 1
    with pytest.raises(ParameterMismatchError):
        classify(mu, 2)


def test_closure_invariance_under_group_action():
    n, r = 2, 2
    R = witt_ring(2, n * r + 1)
    rng = random.Random(4)
    for _ in range(50):
        A = sample_cover(R, n, r, rng)
        g = sample_group(R, n, GroupShape.FULL, rng)
        h = sample_group(R, n, GroupShape.FULL, rng)
        for i in range(n * r // 2 + 1):
            assert in_orbit_closure(g * A * h, i) == in_orbit_closure(A, i)


def test_classify_pred_matches_per_index_predicate():
    for p, n, r in [(2, 2, 2), (2, 3, 1)]:
        nr = n * r
        R = witt_ring(p, nr + 1)
        rng = random.Random(5)
        mats = [sample_cover(R, n, r, rng) for _ in range(40)]
        mats += [WittMat(R, [[R.random(rng) for _ in range(n)] for _ in range(n)])
                 for _ in range(40)]
        members = 0
        for A in mats:
            rep = classify(A, r)
            want = None
            if rep.in_Xr:
                members += 1
                for i in range(nr // 2 + 1):
                    if valuation_predicate(A, i):
                        want = i
            assert rep.pred_val_i == want
        assert 40 <= members < len(mats)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_closure_equations_match_dominance(p, m):
    # A lies in the closure of O_gamma iff every k x k minor has valuation at
    # least the sum of the k smallest parts of gamma (Smith's determinantal
    # divisors), for every target gamma and orbit samples of every stratum
    rng = random.Random(13 + p + m)
    pairs = 0
    for n, r in [(n, r) for n in (2, 3, 4) for r in (1, 2, 3, 4) if n * r <= 8]:
        R = witt_ring(p, n * r + 1, m)
        strata = enumerate_strata(n, r).strata
        for gamma in strata:
            for _ in range(3):
                A = sample_orbit(R, gamma, rng)
                div, mv = divisor_type(A), minor_valuations(A)
                for target in strata:
                    smallest = target.exponents[::-1]
                    cut = all(mv[k - 1] >= sum(smallest[:k]) for k in range(1, n + 1))
                    assert cut == dominance_leq(div, target), (p, m, n, r, gamma, target)
                    pairs += 1
    assert pairs > 1000


@pytest.mark.parametrize("p,N,m", [(2, 3, 1), (3, 4, 1), (2, 3, 2), (3, 2, 3)])
def test_sample_orbit_is_x_times_diagonal_times_y(p, N, m):
    # the orbit sample scales rows of y in place of the product with the diagonal
    R = witt_ring(p, N, m)
    rng = random.Random(300 + p + m)
    for n in range(1, 5):
        for _ in range(4):
            gamma = Cochar(n, tuple(sorted((rng.randrange(N + 2) for _ in range(n)),
                                           reverse=True)))
            seed = rng.getrandbits(32)
            A = sample_orbit(R, gamma, random.Random(seed))
            ref = random.Random(seed)
            x = sample_group(R, n, GroupShape.FULL, ref)
            y = sample_group(R, n, GroupShape.FULL, ref)
            assert A == x * p_power_diagonal(R, gamma.exponents) * y


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_sample_orbit_stamp_matches_elimination(p, m):
    # sample_orbit stamps gamma, clamped to N, into the divisor-type memo; an
    # unstamped copy eliminates, for every descending gamma over [0, N + 1]
    R, N = witt_ring(p, 2, m), 2
    rng = random.Random(f"stamp-{p}-{m}")
    for n in range(1, 7):
        for exps in itertools.combinations_with_replacement(range(N + 1, -1, -1), n):
            A = sample_orbit(R, Cochar(n, exps), rng)
            clamped = Cochar(n, tuple(min(e, N) for e in exps))
            copy = WittMat._from_raw(R, A._raw)
            assert A._divisors == divisor_type(copy) == clamped, (p, m, exps)
            assert divisor_type(A) is A._divisors


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_internal_readers_build_no_witt_elem(p, m, monkeypatch):
    # the stratum readers, the minor oracle, the adjugate inverse, mat_to_obj,
    # the samplers and the degeneration chains read bare values through the
    # ring protocol; once the divisor type is memoised they build no WittElem
    # (n <= 4, so no determinant runs _eliminate)
    rng = random.Random(500 + 10 * p + m)
    cases = []
    for n in range(2, 5):
        R = witt_ring(p, n + 1, m)
        A, G = sample_cover(R, n, 1, rng), sample_group(R, n, GroupShape.FULL, rng)
        divisor_type(A), divisor_type(G)
        cases.append((A, G))
    built = []
    make, init = WittElem._make.__func__, WittElem.__init__

    def counting_make(cls, ring, v):
        built.append(v)
        return make(cls, ring, v)

    def counting_init(self, ring, coeffs):
        built.append(coeffs)
        init(self, ring, coeffs)
    monkeypatch.setattr(WittElem, "_make", classmethod(counting_make))
    monkeypatch.setattr(WittElem, "__init__", counting_init)
    inverses = []
    for A, G in cases:
        classify(A, 1), in_cover(A, 1), minor_valuations(A), mat_to_obj(A), mat_to_obj(G)
        for i in range(A.n // 2 + 1):
            valuation_predicate(A, i), in_orbit_closure(A, i)
        inverses.append(G.inverse())
        with pytest.raises(NotAUnitError):
            A.inverse()
        for shape in GroupShape:
            sample_group(A.ring, A.n, shape, rng)
        sample_cover(A.ring, A.n, 1, rng)
        degeneration_chain(A.ring, A._divisors, regular_cochar(A.n, 1))
    assert built == []
    cases[0][0].det()  # the public reader builds its one element
    assert len(built) == 1
    monkeypatch.undo()
    for (A, G), H in zip(cases, inverses):
        assert G * H == identity(G.ring, G.n)


# One seeded strata_cover item per (p, n, r) cell of the bench grid, whole:
# sample_cover, classify, in_cover, both predicates for every i, two FULL
# group draws and divisor_type(g * A * h).  Each is one ring protocol call
# counted by tests/counting.py; "det" includes every rejected draw of the
# FULL sampler, and the corner minor is one "det" per matrix (see
# test_corner_valuations_are_computed_once_per_matrix).  Together with test_divisor_type_op_counts_are_pinned (census
# inputs), a move here names the layer whose work changed.
_STRATA_COVER_OP_COUNTS = {
    (2, 2, 1): {"det": 15, "divide": 1, "divider": 1, "inv": 1, "matmul": 3, "mul": 4,
                "sub": 1, "val": 20},
    (2, 2, 2): {"det": 18, "divide": 1, "divider": 1, "inv": 1, "matmul": 3, "mul": 4,
                "sub": 1, "val": 23},
    (2, 3, 1): {"det": 8, "divide": 2, "divider": 2, "inv": 2, "matmul": 3, "mul": 9,
                "sub": 4, "val": 17},
    (3, 3, 1): {"det": 7, "divide": 3, "divider": 2, "inv": 2, "matmul": 3, "mul": 17,
                "sub": 5, "val": 25},
    (5, 3, 1): {"det": 8, "divide": 3, "divider": 2, "inv": 2, "matmul": 3, "mul": 17,
                "sub": 5, "val": 26},
    (2, 3, 2): {"det": 16, "divide": 3, "divider": 2, "inv": 2, "matmul": 3, "mul": 14,
                "sub": 5, "val": 34},
    (2, 4, 1): {"det": 15, "divide": 6, "divider": 3, "inv": 3, "matmul": 3, "mul": 36,
                "sub": 14, "val": 47},
}


def test_strata_cover_item_op_counts_are_pinned():
    got = {}
    for p, n, r in _STRATA_COVER_OP_COUNTS:
        ring, rng = witt_ring(p, n * r + 1), random.Random(100 * p + 10 * n + r)
        with counting(ring) as counts:
            A = sample_cover(ring, n, r, rng)
            classify(A, r), in_cover(A, r)
            for i in range(n * r // 2 + 1):
                valuation_predicate(A, i), in_orbit_closure(A, i)
            g = sample_group(ring, n, GroupShape.FULL, rng)
            h = sample_group(ring, n, GroupShape.FULL, rng)
            divisor_type(g * A * h)
        got[p, n, r] = dict(counts)
    assert got == _STRATA_COVER_OP_COUNTS


def test_poset_size_is_bounded_before_any_stratum_is_built():
    # nr = 37 would be 21637 strata; each entry point refuses it at once
    assert len(enumerate_strata(2, BOUNDS["nr"] // 2).strata) == BOUNDS["nr"] // 2 + 1
    message = f"nr = 37 exceeds the bound nr <= {BOUNDS['nr']}"
    with pytest.raises(BoundError, match=message):
        enumerate_strata(37, 1)
    with pytest.raises(BoundError, match=message):
        sample_cover(witt_ring(2, 38), 37, 1, 0)


def test_sample_cover_builds_the_strata_once_per_height(monkeypatch):
    # sample_cover draws from a memo per (n, r); enumerate_strata builds on
    # every call, so the poset workload still times enumeration
    builds = collections.Counter()

    def counting_build(n, r):
        out = _ordered_strata(n, r)
        builds[n, r] += 1  # counted once built: a refused (n, r) is not
        return out
    strata_mod._cover_strata.cache_clear()
    monkeypatch.setattr(strata_mod, "_ordered_strata", counting_build)
    for seed in range(3):
        for p, n, r in _STRATA_COVER_OP_COUNTS:
            ring = witt_ring(p, n * r + 1)
            A, rng = sample_cover(ring, n, r, seed), random.Random(seed)
            cells = _ordered_strata(n, r)
            assert A == sample_orbit(ring, cells[rng.randrange(len(cells))], rng)
    assert builds == {(n, r): 1 for _, n, r in _STRATA_COVER_OP_COUNTS}
    assert enumerate_strata(3, 1) == enumerate_strata(3, 1)
    assert builds[3, 1] == 3
    cached = strata_mod._cover_strata.cache_info().currsize
    for _ in range(2):  # refused before any build, each time: no error is cached
        with pytest.raises(BoundError):
            sample_cover(witt_ring(2, 38), 37, 1, 0)
    assert (37, 1) not in builds and strata_mod._cover_strata.cache_info().currsize == cached
