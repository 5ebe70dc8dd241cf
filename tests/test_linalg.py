"""Exact linear algebra helpers."""

from __future__ import annotations

import random
from fractions import Fraction as Q

import pytest

from orbitope.linalg import (dot, frac_str, identity, inverse,
                             mat_mul, mat_vec, nullspace, primitive,
                             project_onto_span, rank, rref, solve, vec)


def test_rref_identity():
    red, pivots = rref(identity(3))
    assert red == identity(3)
    assert pivots == (0, 1, 2)


def test_solve_and_inverse_roundtrip():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 5)
        a = tuple(tuple(Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n))
                  for _ in range(n))
        if rank(a) < n:
            continue
        x = vec([rng.randint(-5, 5) for _ in range(n)])
        b = mat_vec(a, x)
        assert solve(a, b) == x
        assert mat_mul(a, inverse(a)) == identity(n)


def test_solve_rejects_inconsistent_and_underdetermined():
    with pytest.raises(ValueError):
        solve(((Q(1), Q(0)), (Q(1), Q(0))), (Q(0), Q(1)))
    with pytest.raises(ValueError):
        solve(((Q(1), Q(1)),), (Q(0),))


def test_nullspace_orthogonal_to_rows():
    rng = random.Random(11)
    for _ in range(25):
        rows = tuple(vec([rng.randint(-4, 4) for _ in range(5)]) for _ in range(3))
        ns = nullspace(rows)
        assert len(ns) == 5 - rank(rows)
        for v in ns:
            assert all(dot(r, v) == 0 for r in rows)


def test_primitive_scaling():
    assert primitive(vec(["1/2", "-3/2", 0])) == (1, -3, 0)
    assert primitive(vec([4, 6])) == (2, 3)
    with pytest.raises(ValueError):
        primitive(vec([0, 0]))


def test_project_onto_span_is_idempotent_and_orthogonal():
    basis = [vec([1, 1, 0]), vec([0, 1, 1])]
    v = vec([3, 0, 1])
    p = project_onto_span(basis, v)
    assert project_onto_span(basis, p) == p
    for b in basis:
        assert dot(b, tuple(a - c for a, c in zip(v, p))) == 0


def test_frac_str():
    assert frac_str(Q(3)) == "3"
    assert frac_str(Q(-5, 2)) == "-5/2"


def test_int_rank_matches_fraction_rank():
    """Fraction-free elimination agrees with Gauss-Jordan over Q, including
    zero columns, repeated rows and row swaps."""
    from orbitope.linalg import int_rank
    rng = random.Random(11)
    for _ in range(300):
        n_rows, n_cols = rng.randint(0, 7), rng.randint(1, 6)
        rows = [[rng.choice((0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(n_cols)]
                for _ in range(n_rows)]
        if rows and rng.random() < 0.3:
            rows.append(list(rows[0]))
        assert int_rank(rows) == rank(rows)


def test_lincomb_and_common_denominator():
    from orbitope.linalg import common_denominator, lincomb
    assert lincomb((Q(1, 2), Q(-3)), (vec([2, 4]), vec([1, Q(1, 3)]))) == vec([-2, 1])
    assert common_denominator((Q(1, 6), Q(3, 4), Q(2))) == 12
    assert common_denominator(()) == 1


def test_integral_rows_share_the_least_scale():
    from orbitope.linalg import integral_rows
    assert integral_rows([vec([Q(1, 2), 1]), vec([Q(-2, 3), 0])]) == ([(3, 6), (-4, 0)], 6)
    assert integral_rows([vec([1, -2])]) == ([(1, -2)], 1)
    assert integral_rows([]) == ([], 1)
