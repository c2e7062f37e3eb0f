import collections
import itertools
import random

import pytest

from wittlat.degeneration import (deformation_matrix, degeneration_chain,
                                  embed_witness, transfer_witness)
from wittlat.matrix import WittMat, identity, in_group, GroupShape, p_power_diagonal
from wittlat.snf import Cochar, divisor_type, snf
from wittlat.strata import dominance_leq, enumerate_strata, regular_cochar, sample_orbit
from wittlat.witt import witt_ring

from counting import counting


def test_deformation_matrix_example():
    R = witt_ring(2, 3)
    A = deformation_matrix(R, (1, 1), 1, 1, (1,))
    assert A == WittMat.from_ints(R, [[2, 0], [1, 2]])


def test_deformation_b_zero_keeps_type():
    R = witt_ring(2, 4)
    A = deformation_matrix(R, (2, 1), 1, 0, (1,))
    assert divisor_type(A).exponents == (2, 1)


def test_deformation_parameter_validation():
    R = witt_ring(2, 3)
    with pytest.raises(ValueError):
        deformation_matrix(R, (1, 1), 1, 1, (0,))
    with pytest.raises(ValueError):
        deformation_matrix(R, (1, 1), 1, 2, (1,))
    with pytest.raises(ValueError):
        deformation_matrix(R, (1, 1), 0, 1, (1,))
    with pytest.raises(ValueError, match="coefficients must be integers"):
        deformation_matrix(witt_ring(3, 3), (1, 1), 1, 1, (1.9,))  # not t = 1


def test_transfer_witness_frozen_example():
    # p=2, N=3, r1=rj=b=t=1: factors [[1,6],[0,1]], diag(4,1), [[1,0],[1,1]],
    # [[1,1],[0,1]]; product [[2,0],[1,2]]
    R = witt_ring(2, 3)
    w = transfer_witness(R, 1, 1, 1, (1,))
    f = w.factors
    assert f[0] == WittMat.from_ints(R, [[1, 6], [0, 1]])
    assert f[1] == WittMat.from_ints(R, [[4, 0], [0, 1]])
    assert f[2] == WittMat.from_ints(R, [[1, 0], [1, 1]])
    assert f[3] == WittMat.from_ints(R, [[1, 1], [0, 1]])
    assert w.target == WittMat.from_ints(R, [[2, 0], [1, 2]])
    assert f[0] * f[1] * f[2] * f[3] == w.target


def test_transfer_witness_b_zero_collapses():
    R = witt_ring(3, 4)
    w = transfer_witness(R, 2, 1, 0, (2,))
    assert w.factors[0] == identity(R, 2)
    assert w.factors[3] == identity(R, 2)
    assert w.factors[1] == p_power_diagonal(R, (2, 1))


def test_transfer_witness_grid():
    # identity and divisor-type replacement over a parameter grid, all t
    for p in (2, 3):
        for r1 in range(3):
            for rj in range(r1 + 1):
                ring = witt_ring(p, r1 + rj + 1)
                for b in range(rj + 1):
                    for t in ring.field.elements():
                        if not any(t):
                            continue
                        w = transfer_witness(ring, r1, rj, b, t)
                        prod = w.factors[0] * w.factors[1] * w.factors[2] * w.factors[3]
                        assert prod == w.target
                        assert divisor_type(w.target).exponents == \
                            tuple(sorted((r1 + b, rj - b), reverse=True))
                        for k in (0, 2, 3):
                            assert in_group(w.factors[k], GroupShape.FULL)


def test_transfer_witness_validation():
    R = witt_ring(2, 4)
    with pytest.raises(ValueError):
        transfer_witness(R, 1, 1, 1, (0,))
    with pytest.raises(ValueError):
        transfer_witness(R, 1, 1, 2, (1,))
    with pytest.raises(ValueError):
        transfer_witness(R, 0, 2, 1, (1,))  # r1 + b < rj


def test_embed_witness_n2():
    R = witt_ring(2, 3)
    w = transfer_witness(R, 1, 1, 1, (1,))
    x, eta_prime, y = embed_witness(w, 2, 1, (1, 1))
    assert x == w.factors[0]
    assert eta_prime == w.factors[1]
    eta = deformation_matrix(R, (1, 1), 1, 1, (1,))
    assert x * eta_prime * y.inverse() == eta


def test_embed_witness_n3():
    R = witt_ring(2, 5)
    w = transfer_witness(R, 2, 1, 1, (1,))
    ambient = (2, 2, 1)
    x, eta_prime, y = embed_witness(w, 3, 2, ambient, i=0)
    assert eta_prime == p_power_diagonal(R, (3, 2, 0))
    eta = deformation_matrix(R, ambient, 2, 1, (1,), 0)
    assert x * eta_prime * y.inverse() == eta
    # middle slot untouched
    assert x.rows[1][1] == R.one and y.rows[1][1] == R.one
    assert divisor_type(eta).exponents == (3, 2, 0)
    with pytest.raises(ValueError):
        embed_witness(w, 3, 2, (2, 2, 2), i=0)  # ambient slot mismatch


def test_embed_witness_reads_exponents_and_slots_as_integers():
    # ambient went through int(), so (2.9, 1.2) and ("2", "1") were read as (2, 1)
    R = witt_ring(2, 5)
    w = transfer_witness(R, 2, 1, 1, (1,))
    embed_witness(w, 2, 1, (2, 1))
    for ambient, j, i in (((2.9, 1.2), 1, 0), (("2", "1"), 1, 0), ((2.0, 1), 1, 0),
                          ((2, 1), 1.0, 0), ((2, 1), 1, 0.0), ((2, 1), "1", 0)):
        with pytest.raises(TypeError):
            embed_witness(w, 2, j, ambient, i)


def test_chain_single_step():
    R = witt_ring(2, 3)
    steps = degeneration_chain(R, Cochar(2, (1, 1)), Cochar(2, (2, 0)))
    assert len(steps) == 1
    s = steps[0]
    assert s.upper.exponents == (2, 0) and s.lower.exponents == (1, 1)
    assert s.b == 1 and (s.i, s.j) == (0, 1)
    assert divisor_type(s.deformed) == s.upper
    assert divisor_type(p_power_diagonal(R, s.lower.exponents)) == s.lower


def test_chain_empty():
    R = witt_ring(2, 4)
    g = Cochar(2, (2, 1))
    assert degeneration_chain(R, g, g) == []


def test_chain_rejects_zero_t_even_when_empty():
    R = witt_ring(2, 3)
    g = Cochar(2, (2, 0))
    with pytest.raises(ValueError, match="parameter t must be nonzero"):
        degeneration_chain(R, g, g, t=(0,))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_chain_steps_match_public_witnesses(m):
    # a chain lifts xi(t) and xi(t^-1) once and writes g^-1 in closed form;
    # each step must still equal the per-call public constructions at the
    # same parameters, whose y comes from the adjugate inverse
    for p in (2, 3, 5):
        F = witt_ring(p, 1, m).field
        ts = [t for t in F.elements() if any(t)][:3]
        for n, r in itertools.product((2, 3, 4), (1, 2)):
            ring = witt_ring(p, n * r + 1, m)
            dst = regular_cochar(n, r)
            for src, t in itertools.product(enumerate_strata(n, r).strata, ts):
                steps = degeneration_chain(ring, src, dst, t)
                assert bool(steps) == (src != dst)
                for s in steps:
                    lower = s.lower.exponents
                    w = transfer_witness(ring, lower[s.i], lower[s.j], s.b, t)
                    assert s.witness == w
                    assert (s.x, s.eta_prime, s.y) == embed_witness(w, n, s.j, lower, s.i)
                    assert s.deformed == deformation_matrix(ring, lower, s.j, s.b, t, s.i)


def test_chain_two_steps():
    R = witt_ring(2, 7)
    steps = degeneration_chain(R, Cochar(3, (2, 2, 2)), Cochar(3, (4, 2, 0)))
    assert len(steps) == 2
    assert steps[0].upper.exponents == (4, 2, 0)
    assert steps[-1].lower.exponents == (2, 2, 2)
    for s in steps:
        assert s.upper.total == s.lower.total  # each transfer preserves the cover
        assert dominance_leq(s.lower, s.upper)
        assert divisor_type(s.deformed) == s.upper


def test_chain_plateau_moves():
    # a chain that must move out of a non-leading slot: (3,3,0) -> (3,2,1)
    R = witt_ring(2, 7)
    steps = degeneration_chain(R, Cochar(3, (3, 2, 1)), Cochar(3, (3, 3, 0)))
    assert len(steps) == 1
    assert (steps[0].i, steps[0].j) == (1, 2)
    # and one with a longer plateau: (3,3,2,0) -> (2,2,2,2) in two moves
    R2 = witt_ring(2, 9)
    steps = degeneration_chain(R2, Cochar(4, (2, 2, 2, 2)), Cochar(4, (3, 3, 2, 0)))
    assert [tuple(s.lower.exponents) for s in steps] == [(3, 2, 2, 1), (2, 2, 2, 2)]


def test_chain_requires_comparability():
    R = witt_ring(2, 7)
    with pytest.raises(ValueError):
        degeneration_chain(R, Cochar(3, (4, 1, 1)), Cochar(3, (3, 3, 0)))
    with pytest.raises(ValueError):
        degeneration_chain(R, Cochar(2, (2, 0)), Cochar(2, (1, 1)))


def test_chain_nontrivial_t():
    R = witt_ring(3, 5)
    steps = degeneration_chain(R, Cochar(2, (2, 2)), Cochar(2, (4, 0)), t=(2,))
    assert len(steps) == 2
    for s in steps:
        assert s.witness.t == (2,)


def test_chain_random_pairs():
    rng = random.Random(9)
    for n, r in [(3, 1), (3, 2), (4, 1)]:
        ring = witt_ring(2, n * r + 1)
        strata = enumerate_strata(n, r).strata
        for _ in range(20):
            a = strata[rng.randrange(len(strata))]
            b = strata[rng.randrange(len(strata))]
            if not dominance_leq(a, b):
                continue
            steps = degeneration_chain(ring, a, b)
            assert (len(steps) == 0) == (a == b)
            cur = b
            for s in steps:
                assert s.upper == cur
                cur = s.lower
            assert cur == a


# Ring protocol calls (tests/counting.py) of snf and degeneration_chain on a
# seeded slice of extension items: every stratum gamma of each of the nine
# extension rings, A an orbit sample at gamma and the chain from the regular
# cochar at a random t, summed per ring, on a warm Teichmueller memo.  Before
# L and R updates were fused into _submul and the m > 1 inverse became one
# generated kernel, the same slice made no submul and (mul, sub) =
# (26, 10), (105, 51), (46, 21), (28, 10), (105, 51), (48, 21), (29, 9),
# (114, 51), (54, 21): one mul and one sub per submul, and two products
# (m = 2) or three (m = 3) per inverse.  Before each chain took xi(t^-1) as
# _inv(xi(t)) rather than as the lift of the field inverse of t, inv was one
# lower per chain, so per stratum: 4, 9, 6 for each (p, m) below.
_OP_KEYS = ("mul", "sub", "submul", "val", "inv", "divider", "divide", "matmul")
_EXTENSION_OP_COUNTS = {
    (2, 2, 2, 1): (14, 6, 4, 14, 6, 4, 4, 10),
    (2, 2, 3, 1): (63, 27, 24, 45, 12, 9, 18, 24),
    (2, 2, 2, 2): (28, 15, 6, 25, 9, 6, 6, 24),
    (3, 2, 2, 1): (16, 6, 4, 14, 6, 4, 4, 10),
    (3, 2, 3, 1): (63, 27, 24, 43, 12, 9, 18, 24),
    (3, 2, 2, 2): (30, 15, 6, 23, 9, 6, 6, 24),
    (2, 3, 2, 1): (14, 6, 3, 13, 6, 4, 3, 10),
    (2, 3, 3, 1): (63, 27, 24, 43, 12, 9, 18, 24),
    (2, 3, 2, 2): (30, 15, 6, 23, 9, 6, 6, 24),
}


def test_extension_item_op_counts_are_pinned():
    got = {}
    for p, m, n, r in _EXTENSION_OP_COUNTS:
        ring, total = witt_ring(p, n * r + 1, m), collections.Counter()
        rng = random.Random(f"{p}{m}{n}{r}")
        for a in ring.field.elements():  # a cold Teichmueller memo would count its powers
            ring.teichmuller(a)
        for gamma in enumerate_strata(n, r).strata:
            A = sample_orbit(ring, gamma, rng)
            t = ring.field.random_nonzero(rng)
            with counting(ring) as counts:
                snf(A)
                degeneration_chain(ring, gamma, regular_cochar(n, r), t)
            total += counts
        got[p, m, n, r] = tuple(total[k] for k in _OP_KEYS)
    assert got == _EXTENSION_OP_COUNTS
