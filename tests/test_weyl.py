"""Weyl group order, enumeration, words, orbits, caps."""

from __future__ import annotations

from fractions import Fraction as Q

import pytest

from conftest import get_group, get_point, get_rs
from orbitope import (CapExceededError, TheoremViolationError, build_weyl_group,
                      weyl_orbit)
from orbitope.polytope import face_orbit
from orbitope.weyl import vertex_permutations

ORDERS = [("A", 1, 2), ("A", 2, 6), ("A", 3, 24), ("B", 2, 8), ("B", 3, 48),
          ("C", 3, 48), ("G", 2, 12), ("D", 4, 192), ("F", 4, 1152)]


@pytest.mark.parametrize("label,rank,order", ORDERS)
def test_group_orders(label, rank, order):
    group = get_group(label, rank)
    assert group.order == order
    assert len(group.elements) == order


@pytest.mark.parametrize("rank,order", [(6, 51840), (7, 2903040), (8, 696729600)])
def test_type_e_orders_without_enumeration(rank, order):
    """|W| is the product of the degrees; nothing is enumerated to get it."""
    group = build_weyl_group(get_rs("E", rank), cap=10 ** 9)
    assert group.order == len(group) == order
    assert "elements" not in vars(group)


def test_enumeration_checks_the_order(monkeypatch):
    group = build_weyl_group(get_rs("A", 2))
    monkeypatch.setattr(group, "order", 5)
    with pytest.raises(TheoremViolationError):
        group.elements


def test_generators_square_to_identity():
    group = get_group("B", 2)
    for g in group.generators:
        sq = tuple(tuple(sum(g.matrix[i][k] * g.matrix[k][j] for k in range(2))
                         for j in range(2)) for i in range(2))
        assert sq == group.identity.matrix


def test_elements_permute_the_root_set():
    rs = get_rs("G", 2)
    group = get_group("G", 2)
    roots = set(rs.all_roots())
    for e in group.elements:
        assert {group.apply(e, a) for a in roots} == roots


def test_word_lengths_match_inversion_counts():
    """l(w) = number of positive roots sent to negative ones."""
    rs = get_rs("B", 2)
    group = get_group("B", 2)
    negatives = set()
    for a in rs.positive_roots:
        negatives.add(tuple(-c for c in a))
    for e in group.elements:
        inversions = sum(1 for a in rs.positive_roots if group.apply(e, a) in negatives)
        assert len(e.word) == inversions


def test_words_reproduce_the_action():
    rs = get_rs("A", 3)
    group = get_group("A", 3)
    x = get_point("A", 3, (1, 2, 3)).vector
    for e in group.elements:
        v = x
        for i in reversed(e.word):
            v = rs.reflect(rs.simple_roots[i], v)
        assert v == group.apply(e, x)


def test_matrices_are_killing_orthogonal():
    rs = get_rs("G", 2)
    group = get_group("G", 2)
    g = rs.killing_gram
    n = rs.rank
    for e in group.elements:
        m = e.matrix
        mgm = tuple(tuple(sum(Q(m[k][i]) * g[k][l] * Q(m[l][j])
                              for k in range(n) for l in range(n))
                          for j in range(n)) for i in range(n))
        assert mgm == g


@pytest.mark.parametrize("label,rank,coords,size", [
    ("A", 2, (1, 1), 6), ("A", 2, (1, 0), 3), ("G", 2, (1, 1), 12),
    ("B", 3, (1, 1, 1), 48), ("D", 4, (1, 0, 0, 0), 8)])
def test_orbit_sizes(label, rank, coords, size):
    group = get_group(label, rank)
    x = get_point(label, rank, coords)
    orbit = weyl_orbit(group, x)
    assert len(orbit) == size
    assert x.vector in orbit


def test_orbit_stable_under_every_generator():
    rs = get_rs("B", 2)
    group = get_group("B", 2)
    orbit = set(weyl_orbit(group, get_point("B", 2, (1, 1))))
    for i in range(rs.rank):
        assert {rs.reflect(rs.simple_roots[i], v) for v in orbit} == orbit


def test_parabolic_subgroup_orbit():
    """W_J.x is the closure of x's vertex index under the permutations of J."""
    group = get_group("A", 2)
    x = get_point("A", 2, (1, 1))
    orbit = weyl_orbit(group, x)
    perms = vertex_permutations(group, orbit)
    start = (orbit.index(x.vector),)
    assert len(face_orbit([perms[j] for j in (0,)], start)) == 2
    assert len(face_orbit([perms[j] for j in ()], start)) == 1


def test_weyl_cap():
    rs = get_rs("E", 6)
    with pytest.raises(CapExceededError):
        build_weyl_group(rs)
    assert build_weyl_group(get_rs("F", 4), cap=1152).order == 1152


def test_enumeration_is_deterministic():
    rs = get_rs("B", 3)
    g1 = build_weyl_group(rs)
    g2 = build_weyl_group(rs)
    assert [e.matrix for e in g1.elements] == [e.matrix for e in g2.elements]
    assert [e.word for e in g1.elements] == [e.word for e in g2.elements]


def test_vertex_permutations_compose_correctly():
    """The generator permutations, composed along each reduced word, act as
    the element's matrix does."""
    group = get_group("A", 2)
    orbit = weyl_orbit(group, get_point("A", 2, (1, 1)))
    perms = vertex_permutations(group, orbit)
    assert len(perms) == group.root_system.rank
    for e in group.elements:
        for i, v in enumerate(orbit):
            j = i
            for k in reversed(e.word):
                j = perms[k][j]
            assert orbit[j] == group.apply(e, v)
