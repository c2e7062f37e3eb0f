import copy
import dataclasses
import itertools
import pickle
import random

import pytest

from wittlat.dimension import (DimReport, complete_intersection_check, dim_lattice_orbit,
                               dim_matrix_orbit, dim_matrix_orbit_closed_form,
                               dim_report, regular_lattice_dim,
                               shape_space_dim, stabilizer_dim,
                               tiny_exhaustive_census)
from wittlat.cli import _census_matrix
from wittlat.degeneration import degeneration_chain
from wittlat.matrix import GroupShape, WittMat, _eliminate, p_power_diagonal, zeros
from wittlat.snf import Cochar, _cochar, divisor_type, snf
from wittlat.strata import (StratumReport, classify, enumerate_strata, regular_cochar,
                            sample_orbit, subregular_cochar)
from wittlat.witt import witt_ring

FULL2 = (GroupShape.FULL, GroupShape.FULL)
PP = (GroupShape.P, GroupShape.P_MINUS)
BB = (GroupShape.B, GroupShape.B_MINUS)


def test_stabilizer_full_example():
    # mu_1 at n=2, N=3: per-entry count n^2 N + sum min(s_i, s_j) = 12 + 2
    assert stabilizer_dim(Cochar(2, (2, 0)), FULL2, 3) == 14


def test_stabilizer_full_general():
    # sum over pairs of min(s_i, s_j) equals sum (2k-1) s_k for sorted s
    for exps, N in [((3, 1, 0), 5), ((2, 2, 1), 7), ((4, 0), 5)]:
        g = Cochar(len(exps), exps)
        want = len(exps) ** 2 * N + sum((2 * k + 1) * e for k, e in enumerate(exps))
        assert stabilizer_dim(g, FULL2, N) == want


def test_closed_forms_full_matrix():
    for n in range(2, 5):
        for r in range(1, 4):
            nr = n * r
            N = nr + 1
            for i in range(nr // 2 + 1):
                g = subregular_cochar(n, r, i)
                assert stabilizer_dim(g, FULL2, N) == n * n * N + nr + 2 * i
                assert stabilizer_dim(g, PP, N) == N * ((n - 1) ** 2 + 1) + nr + 2 * i
                assert stabilizer_dim(g, BB, N) == n * n * nr + n + nr + 2 * i


def test_orbit_dims_agree_across_shape_pairs():
    for n in range(2, 5):
        for r in range(1, 4):
            nr = n * r
            N = nr + 1
            for i in range(nr // 2 + 1):
                g = subregular_cochar(n, r, i)
                want = dim_matrix_orbit_closed_form(i, n, r)
                assert want == n * n * N - (nr + 2 * i)
                assert dim_matrix_orbit(g, N) == want
                assert dim_matrix_orbit(g, N, PP) == want
                assert dim_matrix_orbit(g, N, BB) == want


def test_shape_space_dims():
    # dim P = (n^2 - (n-1)) N and dim B = n^2 nr + n(n+1)/2
    for n in range(2, 5):
        for N in (3, 5):
            nr = N - 1
            assert shape_space_dim(GroupShape.FULL, n, N) == n * n * N
            assert shape_space_dim(GroupShape.P, n, N) == (n * n - (n - 1)) * N
            assert shape_space_dim(GroupShape.P_MINUS, n, N) == (n * n - (n - 1)) * N
            assert shape_space_dim(GroupShape.B, n, N) == n * n * nr + n * (n + 1) // 2
            assert shape_space_dim(GroupShape.B_MINUS, n, N) == \
                n * n * nr + n * (n + 1) // 2
    for shape in ("full", None):
        with pytest.raises(ValueError, match="^unknown shape"):
            shape_space_dim(shape, 2, 3)


def test_orbit_dim_examples():
    # codimension of the full cover is nr; scalar strata are single points
    for n, r in [(2, 1), (3, 2)]:
        nr = n * r
        N = nr + 1
        assert dim_matrix_orbit(regular_cochar(n, r), N) == n * n * N - nr
        scalar = Cochar(n, (r,) * n)
        assert dim_matrix_orbit(scalar, N) == n * n * N - n * n * r
        assert dim_lattice_orbit(scalar, r) == 0


def test_lattice_dims():
    assert dim_lattice_orbit(regular_cochar(3, 1), 1) == 6 == regular_lattice_dim(3, 1)
    # n=2, r=2, shifted (3,1): 2 = n(n-1)r - 2
    assert dim_lattice_orbit(Cochar(2, (3, 1)), 2) == 2
    for n in range(2, 5):
        for r in range(1, 4):
            nr = n * r
            prev = None
            for i in range(nr // 2 + 1):
                d = dim_lattice_orbit(subregular_cochar(n, r, i), r)
                assert d % 2 == 0 and d >= 0
                if i == 0:
                    assert d == (n - 1) * n * r
                if prev is not None:
                    assert prev - d == 2
                prev = d
    with pytest.raises(ValueError):
        dim_lattice_orbit(Cochar(2, (1, 0)), 1)


def test_lattice_matrix_consistency():
    # (n^2 N - orbit(gamma)) - nr == (n-1)nr - dim_lattice_orbit(gamma)
    for n, r in [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)]:
        nr = n * r
        N = nr + 1
        for gamma in enumerate_strata(n, r).strata:
            lhs = (n * n * N - dim_matrix_orbit(gamma, N)) - nr
            rhs = (n - 1) * nr - dim_lattice_orbit(gamma, r)
            assert lhs == rhs


def test_complete_intersection_checks():
    for n in range(2, 5):
        for r in range(1, 4):
            for i in range(n * r // 2 + 1):
                assert complete_intersection_check(i, n, r)
                # perturbed generator count is a negative control
                assert not complete_intersection_check(
                    i, n, r, generator_count=n * r + 2 * i + 1)


def test_dim_report():
    rep = dim_report(subregular_cochar(2, 1, 1), 1)
    assert rep.dim_matrix_orbit == 8 and rep.codim_in_mat == 4
    assert rep.stab_dim == 16
    assert rep.sources["dim_matrix_orbit"] == "closed-form+linear-oracle"
    obj = rep.to_obj()
    assert obj["gamma"] == {"n": 2, "exponents": [1, 1]}
    rep2 = dim_report(Cochar(3, (2, 2, 2)), 2)
    assert rep2.dim_lattice_orbit == 0
    assert rep2.sources["dim_matrix_orbit"] == "linear-oracle"
    with pytest.raises(ValueError):
        dim_report(Cochar(2, (0, 0)), 0)  # r = 0


def _assert_matches_checked_record(x):
    # x, filled by snf._record or snf._cochar, is the record the checked constructor builds
    # (read through fields and getattr, as a slotted record such as Cochar has no __dict__)
    names = [f.name for f in dataclasses.fields(x)]
    checked = type(x)(*[getattr(x, name) for name in names])
    if hasattr(x, "__dict__"):  # a dict-backed record holds its fields and nothing else
        assert list(vars(x)) == names
    for y in (dataclasses.replace(x), checked, copy.copy(x)):
        assert y == x and repr(y) == repr(x)
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, name, getattr(x, name))
    assert pickle.loads(pickle.dumps(x)) == x


def test_unchecked_records_match_checked_ones():
    # the strata, dim_report, snf and chain records are filled by snf._record and
    # snf._cochar, not by the dataclass __init__; each must be the record that
    # the checked constructor builds
    for n in range(2, 9):
        for r in range(1, 24 // n + 1):
            for g in enumerate_strata(n, r).strata:
                rep = dim_report(g, r)
                assert rep.sources is not dim_report(g, r).sources  # a fresh dict
                for x in (g, rep):
                    _assert_matches_checked_record(x)
                assert type(rep) is DimReport and hash(g) == hash(Cochar(n, g.exponents))
    # so are snf's SnfResult and every ChainStep and TransferWitness of a chain
    rng = random.Random(25)
    for m, n in itertools.product((1, 2), range(2, 5)):
        for r in range(1, 6 // n + 1):
            ring, regular = witt_ring(3, n * r + 1, m), regular_cochar(n, r)
            for g in enumerate_strata(n, r).strata:
                _assert_matches_checked_record(snf(sample_orbit(ring, g, rng)))
                for step in degeneration_chain(ring, g, regular):
                    _assert_matches_checked_record(step)
                    _assert_matches_checked_record(step.witness)
    # so are divisor_type's Cochar, against the sorted exponents of the
    # elimination, and classify's StratumReport: on census samples (p = 2, 3, 5
    # and n = 2..6 for m = 1; p = 3, n = 2..5 for m = 2), one with a zero row,
    # the zero matrix and a p-power diagonal out of order, with exponent N
    grid = [(1, p, n) for p in (2, 3, 5) for n in range(2, 7)] + [(2, 3, n) for n in range(2, 6)]
    for m, p, n in grid:
        ring = witt_ring(p, n + 1, m)
        mats = [_census_matrix(ring, n, 29, k) for k in range(3)]
        mats.append(WittMat(ring, mats[0].rows[:-1] + ((ring.zero,) * n,)))
        mats += [zeros(ring, n), p_power_diagonal(ring, (0, ring.N) + tuple(range(1, n - 1)))]
        for A in mats:
            exps = _eliminate(ring, A._raw, with_transforms=False)[0]
            div, rep = divisor_type(A), classify(A, 1)
            for x, checked in ((div, Cochar(n, sorted(exps, reverse=True))),
                               (rep, StratumReport(*[getattr(rep, f.name)
                                                     for f in dataclasses.fields(rep)]))):
                assert x == checked and hash(x) == hash(checked) and repr(x) == repr(checked)
                _assert_matches_checked_record(x)


def test_tiny_census_frozen_values():
    census = tiny_exhaustive_census()
    assert census.total_matrices == 4096
    assert census.group_order == 1536  # |GL_2(F_2)| * 2^8 = 6 * 256
    # full histogram derived by orbit-stabilizer counting over Z/8
    assert census.histogram == {
        (0, 0): 1536, (1, 0): 1152, (1, 1): 96, (2, 0): 576, (2, 1): 72,
        (2, 2): 6, (3, 0): 576, (3, 1): 72, (3, 2): 9, (3, 3): 1,
    }
    assert census.stab_pairs == {(2, 0): 4096, (1, 1): 24576}
    assert census.orbit_counts_ok
    assert census.cover_size == 672 and census.partition_ok
    assert sum(census.histogram.values()) == 4096


def test_tiny_census_jobs_agree():
    a = tiny_exhaustive_census()
    b = tiny_exhaustive_census(jobs=2)
    assert a == b


def test_dim_report_orbit_matches_oracle():
    # dim_report groups the per-entry counts by max(i, j); the oracle sums them
    # entry by entry, for every stratum with n = 2..8 and nr <= 24
    for n in range(2, 9):
        for r in range(1, 24 // n + 1):
            N = n * r + 1
            for gamma in enumerate_strata(n, r).strata:
                rep = dim_report(gamma, r)
                orbit = dim_matrix_orbit(gamma, N)
                assert rep.stab_dim == stabilizer_dim(gamma, FULL2, N), gamma
                assert rep.dim_matrix_orbit == orbit, gamma
                assert rep.codim_in_mat == shape_space_dim(GroupShape.FULL, n, N) - orbit, gamma
                assert rep.dim_lattice_orbit == dim_lattice_orbit(gamma, r), gamma


def test_dim_report_rejects_exponent_above_N():
    # (5, 0) at r = 1 has N = 3: the same error as the oracle's, before the
    # total is checked
    gamma = Cochar(2, (5, 0))
    with pytest.raises(ValueError, match=r"exponents must lie in \[0, N\]"):
        stabilizer_dim(gamma, FULL2, 3)
    with pytest.raises(ValueError, match=r"exponents must lie in \[0, N\]"):
        dim_report(gamma, 1)


def test_dim_report_raises_lattice_orbit_errors_before_closed_form():
    # dim_report computes the lattice-orbit dimension itself but keeps
    # dim_lattice_orbit's errors, checked before the closed-form cross-check:
    # a subregular-shaped vector with the wrong total is a bad input, not an
    # oracle disagreement
    negative = _cochar(3, (4, 0, -1))  # past Cochar's own checks
    cases = [(Cochar(3, (1, 1, 1)), 2), (negative, 1),
             (Cochar(2, (3, 0)), 1), (Cochar(2, (1, 0)), 1), (Cochar(3, (2, 1, 0)), 2)]
    for gamma, r in cases:
        with pytest.raises(ValueError) as want:
            dim_lattice_orbit(gamma, r)
        with pytest.raises(ValueError, match=str(want.value)):
            dim_report(gamma, r)
