"""Root data: counts, Cartan/Killing structure, chamber points."""

from __future__ import annotations

from fractions import Fraction as Q

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import defining_sum, get_group, get_oracle, get_point, get_rs, orbit_vectors
from orbitope import InvalidInputError, build_root_system, chamber_point
from orbitope.linalg import (dot, lincomb, solve, transpose, vadd, vec, vscale,
                             zero_vec)
from orbitope.roots import VALID_RANKS
from orbitope.weyl import weyl_orbit

PAIRS = [(t, r) for t in sorted(VALID_RANKS) for r in VALID_RANKS[t]]

#: the classical |Delta+| of each type (Bourbaki, Lie Groups and Lie
#: Algebras, Ch. VI, Plates I-IX)
_CLASSICAL_COUNTS = {"A": lambda n: n * (n + 1) // 2, "B": lambda n: n * n,
                     "C": lambda n: n * n, "D": lambda n: n * (n - 1),
                     "E": {6: 36, 7: 63, 8: 120}.get, "F": lambda n: 24, "G": lambda n: 6}

POSITIVE_COUNTS = [(t, r, _CLASSICAL_COUNTS[t](r)) for t, r in PAIRS]


@pytest.mark.parametrize("label,rank,count", POSITIVE_COUNTS)
def test_positive_root_counts(label, rank, count):
    assert get_rs(label, rank).n_positive == count


@pytest.mark.parametrize("label,rank", [("G", 3), ("F", 5), ("D", 3), ("C", 2),
                                        ("E", 5), ("A", 9), ("H", 2)])
def test_invalid_pairs_rejected(label, rank):
    with pytest.raises(InvalidInputError):
        build_root_system(label, rank)


@pytest.mark.parametrize("label,rank", PAIRS)
def test_root_expansions_are_signed_integer(label, rank):
    """Every root of the closure of the simple roots has one sign and a
    connected support: the positive roots and their negatives are closed
    under the simple reflections, so the closure holds nothing else."""
    rs = get_rs(label, rank)
    for coeffs in rs.positive_coords:
        assert all(c >= 0 for c in coeffs) and any(coeffs)
        assert len(rs.components([i for i, c in enumerate(coeffs) if c])) == 1
    roots = set(rs.positive_coords) | {tuple(-c for c in b) for b in rs.positive_coords}
    for b in roots:
        for i in range(rank):
            pairing = sum(bj * rs.cartan_matrix[j][i] for j, bj in enumerate(b))
            assert b[:i] + (b[i] - pairing,) + b[i + 1:] in roots


@pytest.mark.parametrize("label,rank", PAIRS)
def test_cartan_entries_are_the_integral_pairings_of_the_simple_roots(label, rank):
    rs = get_rs(label, rank)
    assert [[2 * dot(a, b) / dot(b, b) for b in rs.simple_roots] for a in rs.simple_roots] \
        == [list(row) for row in rs.cartan_matrix]


def test_cartan_matrix_a2():
    assert get_rs("A", 2).cartan_matrix == ((2, -1), (-1, 2))


def test_cartan_matrix_g2_has_triple_bond():
    c = get_rs("G", 2).cartan_matrix
    assert c[0][1] * c[1][0] == 3


def test_killing_pairing_a1_coroot_by_defining_sum():
    """Oracle: evaluate the defining sum over Delta = {a, -a} directly."""
    rs = get_rs("A", 1)
    alpha = rs.simple_roots[0]
    h = rs.coroot(alpha)
    expected = sum(dot(g, h) * dot(g, h) for g in (alpha, vscale(Q(-1), alpha)))
    assert rs.killing_ratio * dot(h, h) == expected == 8


def test_killing_gram_a2_offdiagonal_by_defining_sum():
    """Oracle: sum over the six explicitly listed A2 roots."""
    rs = get_rs("A", 2)
    e = lambda i: tuple(Q(1 if j == i else 0) for j in range(3))
    deltas = []
    for i in range(3):
        for j in range(3):
            if i != j:
                deltas.append(tuple(a - b for a, b in zip(e(i), e(j))))
    b1, b2 = (rs.coroot(a) for a in rs.simple_roots)
    expected = sum(dot(g, b1) * dot(g, b2) for g in deltas)
    assert rs.killing_ratio * dot(b1, b2) == expected == -6


def test_killing_weyl_invariance():
    rs = get_rs("B", 2)
    oracle = get_oracle("B", 2)
    roots = rs.positive_roots
    for w in oracle.words:
        for a in roots:
            for b in roots:
                value = defining_sum(rs.positive_roots, oracle.apply(w, a), oracle.apply(w, b))
                assert value == defining_sum(rs.positive_roots, a, b)
                assert value == rs.killing_ratio * dot(a, b)


@pytest.mark.parametrize("label,rank", PAIRS)
def test_positive_coroot_coords_are_the_pairings_with_the_fundamental_weights(label, rank):
    """beta^vee = Sum_j <omega_j, beta^vee> alpha_j^vee, so the table's row of
    beta holds 2 d(omega_j, beta) / d(beta, beta)."""
    rs = get_rs(label, rank)
    assert len(rs.positive_coroot_coords) == rs.n_positive
    for beta, row in zip(rs.positive_roots, rs.positive_coroot_coords):
        assert all(isinstance(c, int) for c in row)
        assert list(row) == [2 * dot(w, beta) / dot(beta, beta)
                             for w in rs.fundamental_weights]


def test_simple_reflection_fixes_hyperplane_and_negates_root():
    rs = get_rs("G", 2)
    for a in rs.simple_roots:
        assert rs.reflect(a, a) == vscale(Q(-1), a)
        for w in rs.fundamental_coweights:
            if dot(a, w) == 0:
                assert rs.reflect(a, w) == w


def test_chamber_point_rejections():
    rs = get_rs("A", 2)
    with pytest.raises(InvalidInputError):
        chamber_point(rs, [1, -1])
    with pytest.raises(InvalidInputError):
        chamber_point(rs, [0, 0])
    with pytest.raises(InvalidInputError):
        chamber_point(rs, [1])


def test_chamber_point_singular_set_and_rational_strings():
    rs = get_rs("A", 2)
    x = chamber_point(rs, ["3/2", "0"])
    assert x.singular_set == (1,)
    assert x.coords == (Q(3, 2), Q(0))


def test_orbit_barycenter_is_zero():
    """Semisimple case: the W-invariant barycenter of any orbit is the origin."""
    for label, rank, coords in [("A", 2, (1, 1)), ("B", 2, (1, 0)), ("G", 2, (2, 3))]:
        group = get_group(label, rank)
        orbit = orbit_vectors(weyl_orbit(group, get_point(label, rank, coords)))
        total = zero_vec(get_rs(label, rank).ambient_dim)
        for v in orbit:
            total = vadd(total, v)
        assert all(c == 0 for c in total)


def test_fundamental_weight_coweight_duality():
    """On every admitted pair; so alpha_j vanishes on a chamber point x
    exactly when x's coordinate j is 0."""
    for label, rank in PAIRS:
        rs = get_rs(label, rank)
        for i, w in enumerate(rs.fundamental_weights):
            for j, a in enumerate(rs.simple_roots):
                assert dot(w, rs.coroot(a)) == (1 if i == j else 0), (label, rank)
        for i, w in enumerate(rs.fundamental_coweights):
            for j, a in enumerate(rs.simple_roots):
                assert dot(w, a) == (1 if i == j else 0), (label, rank)


def _units(m):
    return [tuple(Q(int(i == j)) for j in range(m)) for i in range(m)]


@pytest.mark.parametrize("label,rank", PAIRS)
def test_killing_ambient_gram_equals_defining_sum(label, rank):
    """Off the root span (A, E6, E7) the Killing form only sees the projection
    P onto it: <u, v> = killing_ratio * d(Pu, Pv) on the whole ambient space."""
    rs = get_rs(label, rank)
    m = rs.ambient_dim
    gram = tuple(tuple(dot(a, b) for b in rs.simple_roots) for a in rs.simple_roots)
    projected = [lincomb(solve(gram, tuple(dot(a, e) for a in rs.simple_roots)),
                         rs.simple_roots) for e in _units(m)]
    # the defining sum at unit vectors e_i, e_j, where d(a, e_i) = a[i]
    assert tuple(tuple(rs.killing_ratio * dot(p, q) for q in projected) for p in projected) \
        == tuple(tuple(2 * sum((a[i] * a[j] for a in rs.positive_roots), Q(0)) for j in range(m))
                 for i in range(m))


@pytest.mark.parametrize("label,rank", PAIRS)
def test_killing_is_ratio_times_dot_on_the_root_span(label, rank):
    """The fact the polytope layer rests on: with u in the root span and v
    anywhere in the ambient space, <u, v> = killing_ratio * d(u, v), and the
    ratio is a positive integer, the per-factor ratio of all simple roots.
    So hulls, support sets and exposed faces taken with the dot product are
    those of the Killing form."""
    import random
    rs = get_rs(label, rank)
    ratio = rs.killing_ratio
    assert ratio.denominator == 1 and ratio > 0
    assert rs.killing_ratio_of(range(rank)) == ratio
    rng = random.Random(11)
    us = list(rs.simple_roots) + [
        lincomb([rng.randint(-3, 3) for _ in range(rank)], rs.simple_roots) for _ in range(3)]
    # unit vectors and (1, ..., 1) reach off the root span for A, E6 and E7
    vs = _units(rs.ambient_dim) + [vec([1] * rs.ambient_dim)] + [
        tuple(Q(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rs.ambient_dim))
        for _ in range(3)]
    for u in us:
        for v in vs:
            assert defining_sum(rs.positive_roots, u, v) == ratio * dot(u, v)
            assert defining_sum(rs.positive_roots, v, u) == ratio * dot(v, u)


#: small rationals in the largest ambient dimension (9, for A8); each pair reads a prefix
_VECTORS = st.lists(st.builds(Q, st.integers(-6, 6), st.integers(1, 4)), min_size=9, max_size=9)


# no shrinking: each example runs every pair, so a shrink would take minutes
@settings(derandomize=True, deadline=None, database=None, max_examples=15,
          phases=(Phase.explicit, Phase.generate))
@given(u=_VECTORS, v=_VECTORS, subset=st.sets(st.integers(0, 7)))
def test_killing_form_equals_defining_sum(u, v, subset):
    """On every admitted pair and each component c of a simple-root subset,
    with u in span(c) and v anywhere, the sum over the roots of c equals
    killing_ratio_of(c) * d(u, v) exactly."""
    for label, rank in PAIRS:
        rs = get_rs(label, rank)
        vv = tuple(v[:rs.ambient_dim])
        for c in rs.components([i for i in subset if i < rank]):
            uu = lincomb(u[:len(c)], [rs.simple_roots[i] for i in c])
            roots = [rs.positive_roots[k] for k in rs.subsystem_positive(c)]
            assert defining_sum(roots, uu, vv) == rs.killing_ratio_of(c) * dot(uu, vv), \
                (rs.name, c)


def _closure_oracle(simples):
    """Oracle: close the simple roots under their reflections as Fraction
    vectors and expand each root on the simple basis by an exact solve."""
    def reflect(a, v):
        c = 2 * dot(a, v) / dot(a, a)
        return tuple(x - c * y for x, y in zip(v, a))

    roots = set(simples)
    frontier = list(simples)
    while frontier:
        v = frontier.pop()
        for a in simples:
            w = reflect(a, v)
            if w not in roots:
                roots.add(w)
                frontier.append(w)
    basis_t = transpose(simples)
    positives = []
    for v in roots:
        coeffs = solve(basis_t, v)
        assert all(c.denominator == 1 for c in coeffs)
        if all(c >= 0 for c in coeffs):
            positives.append((tuple(int(c) for c in coeffs), v))
    positives.sort(key=lambda p: (sum(p[0]), p[0]))
    return tuple(v for _, v in positives), tuple(c for c, _ in positives)


@pytest.mark.parametrize("label,rank", PAIRS)
def test_root_closure_matches_fraction_oracle(label, rank):
    """The integer closure in simple-root coordinates gives the roots of the
    Fraction reflection closure, in the same order."""
    rs = get_rs(label, rank)
    assert (rs.positive_roots, rs.positive_coords) == _closure_oracle(rs.simple_roots)
