"""Exact linear algebra helpers.

The eliminations are checked against oracles that use none: the rank as the
size of the largest nonzero minor (`tests_util_det.minor_rank`) and the
defining identity of each result.
"""

from __future__ import annotations

import random
from fractions import Fraction as Q

import pytest

from orbitope.linalg import (closure, dot, frac_str, identity, int_rank, integral_rows,
                             inverse, primitive, rref, solve, vec)
from tests_util_det import det, minor_rank


def _entry(rng):
    return rng.choice((Q(0), Q(0), Q(1), Q(-1), Q(rng.randint(-9, 9), rng.randint(1, 6))))


def _random_matrices(seed: int, count: int) -> list[list[list[Q]]]:
    """Wide, tall, square and rank-deficient rational matrices of at most six
    rows and columns, some with an extra zero row or a duplicate row."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        kind = k % 4
        if kind == 0:
            n_rows = rng.randint(1, 5)
            n_cols = rng.randint(n_rows + 1, 6)
        elif kind == 1:
            n_cols = rng.randint(1, 5)
            n_rows = rng.randint(n_cols + 1, 6)
        else:
            n_rows = n_cols = rng.randint(1, 6)
        if kind == 3:
            # a product through rank r < min(n_rows, n_cols), or zero for 1 x 1
            r = rng.randint(0, min(n_rows, n_cols) - 1)
            left = [[_entry(rng) for _ in range(r)] for _ in range(n_rows)]
            right = [[_entry(rng) for _ in range(n_cols)] for _ in range(r)]
            rows = [[sum((a * right[j][c] for j, a in enumerate(row)), Q(0))
                     for c in range(n_cols)] for row in left]
        else:
            rows = [[_entry(rng) for _ in range(n_cols)] for _ in range(n_rows)]
        if rng.random() < 0.3 and len(rows) < 6:
            rows.insert(rng.randint(0, len(rows)), [Q(0)] * n_cols)
        if rng.random() < 0.3 and len(rows) < 6:
            rows.insert(rng.randint(0, len(rows)), list(rng.choice(rows)))
        out.append(rows)
    return out


MATRICES = _random_matrices(19, 320)
RANKS = [minor_rank(m) for m in MATRICES]


def _mat_vec(a, x):
    return [dot(row, x) for row in a]


def test_random_matrices_cover_every_shape():
    assert any(len(m) < len(m[0]) for m in MATRICES)
    assert any(len(m) > len(m[0]) for m in MATRICES)
    assert sum(r < min(len(m), len(m[0])) for m, r in zip(MATRICES, RANKS)) >= 80
    assert any(any(not any(row) for row in m) for m in MATRICES)
    assert any(len(set(map(tuple, m))) < len(m) for m in MATRICES if any(map(any, m)))


def test_rref_identity():
    red, pivots = rref(identity(3))
    assert red == identity(3)
    assert pivots == (0, 1, 2)


def test_rref_is_the_reduced_echelon_form_of_the_row_space():
    """As many pivots as the minor rank, increasing; each row zero left of
    its pivot; the pivot columns are unit columns; every input row is
    Sum_k row[c_k] red_k; the rows past the rank are zero.  The last two with
    the count pin the row space, and the RREF of a row space is unique."""
    for rows, r in zip(MATRICES, RANKS):
        red, pivots = rref(rows)
        n_cols = len(rows[0])
        assert len(pivots) == r and list(pivots) == sorted(set(pivots))
        assert len(red) == len(rows) and all(len(row) == n_cols for row in red)
        assert all(type(x) is Q for row in red for x in row)
        for k, c in enumerate(pivots):
            assert not any(red[k][:c])
            assert [row[c] for row in red] == [int(j == k) for j in range(len(red))]
        assert not any(map(any, red[r:]))
        for row in rows:
            assert [sum((row[c] * red[k][j] for k, c in enumerate(pivots)), Q(0))
                    for j in range(n_cols)] == row


def test_int_rank_matches_minor_rank():
    """Fraction-free elimination agrees with the largest nonzero minor,
    including zero columns, zero rows, repeated rows and row swaps."""
    for rows, r in zip(MATRICES, RANKS):
        ints = integral_rows(rows)[0]
        assert int_rank(ints) == minor_rank(ints) == r
    assert int_rank([]) == 0


def test_solve_and_inverse_roundtrip():
    """a . inverse(a) = I and a . solve(a, b) = b whenever det a != 0;
    otherwise both raise."""
    rng = random.Random(7)
    for a in MATRICES:
        n = len(a)
        if n != len(a[0]):
            continue
        b = [_entry(rng) for _ in range(n)]
        if det(a):
            inv = inverse(a)
            assert [_mat_vec(a, col) for col in zip(*inv)] == [list(e) for e in identity(n)]
            assert _mat_vec(a, solve(a, b)) == b
        else:
            with pytest.raises(ValueError, match="singular"):
                inverse(a)
            with pytest.raises(ValueError):
                solve(a, b)


def test_solve_on_random_systems():
    """A system a x = b is inconsistent when b raises the minor rank,
    underdetermined when a has fewer independent columns than columns, and
    otherwise solved: a . solve(a, b) = b, the consistent b being a . x."""
    rng = random.Random(13)
    for a, r in zip(MATRICES, RANKS):
        n_cols = len(a[0])
        consistent = _mat_vec(a, [_entry(rng) for _ in range(n_cols)])
        for b in (consistent, [_entry(rng) for _ in a]):
            if minor_rank([row + [bi] for row, bi in zip(a, b)]) > r:
                with pytest.raises(ValueError, match="inconsistent"):
                    solve(a, b)
            elif r < n_cols:
                with pytest.raises(ValueError, match="underdetermined"):
                    solve(a, b)
            else:
                assert _mat_vec(a, solve(a, b)) == b


def test_solve_rejects_inconsistent_and_underdetermined():
    with pytest.raises(ValueError):
        solve(((Q(1), Q(0)), (Q(1), Q(0))), (Q(0), Q(1)))
    with pytest.raises(ValueError):
        solve(((Q(1), Q(1)),), (Q(0),))


def test_primitive_scaling():
    assert primitive(vec(["1/2", "-3/2", 0])) == (1, -3, 0)
    assert primitive(vec([4, 6])) == (2, 3)
    with pytest.raises(ValueError):
        primitive(vec([0, 0]))


def test_frac_str():
    assert frac_str(Q(3)) == "3"
    assert frac_str(Q(-5, 2)) == "-5/2"


def test_lincomb_and_common_denominator():
    from orbitope.linalg import common_denominator, lincomb
    assert lincomb((Q(1, 2), Q(-3)), (vec([2, 4]), vec([1, Q(1, 3)]))) == vec([-2, 1])
    assert common_denominator((Q(1, 6), Q(3, 4), Q(2))) == 12
    assert common_denominator(()) == 1


def test_integral_rows_share_the_least_scale():
    assert integral_rows([vec([Q(1, 2), 1]), vec([Q(-2, 3), 0])]) == ([(3, 6), (-4, 0)], 6)
    assert integral_rows([vec([1, -2])]) == ([(1, -2)], 1)
    assert integral_rows([]) == ([], 1)


def test_closure_of_an_empty_start_is_empty():
    def step(_):
        raise AssertionError("step called on an empty closure")
    assert closure([], step) == set()


def test_closure_absorbs_a_step_that_yields_its_argument_and_repeats():
    # 12 -> 12, 12, 6 -> ... -> 1 -> 1, 1, 0 -> 0, 0, 0
    assert closure([12], lambda n: (n, n, n // 2)) == {12, 6, 3, 1, 0}
    assert closure([5, 5, 2], lambda n: (n, n // 2)) == {5, 2, 1, 0}


def test_closure_of_a_point_under_a_permutation_is_its_cycle():
    perm = (1, 2, 3, 0, 5, 4, 6)
    assert closure([2], lambda i: (perm[i],)) == {0, 1, 2, 3}
    assert closure([5], lambda i: (perm[i],)) == {4, 5}
    assert closure([6], lambda i: (perm[i],)) == {6}


def test_closure_over_tuples_gives_the_orbits_of_a_square_s_edges_and_diagonals():
    rotation, flip = (1, 2, 3, 0), (1, 0, 3, 2)

    def step(face):
        return (tuple(sorted(p[i] for i in face)) for p in (rotation, flip))
    assert closure([(0, 1)], step) == {(0, 1), (1, 2), (2, 3), (0, 3)}
    assert closure([(0, 2)], step) == {(0, 2), (1, 3)}
    assert closure([(0, 1, 2, 3)], step) == {(0, 1, 2, 3)}
