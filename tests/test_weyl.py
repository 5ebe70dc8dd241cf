"""Weyl group order, the Dynkin-label action, orbits, caps, against an
enumerated oracle."""

from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import defining_sum, get_group, get_oracle, get_point, get_rs, orbit_vectors
from orbitope import (CapExceededError, TheoremViolationError,
                      build_weyl_group, chamber_point, weyl, weyl_orbit)
from orbitope.cli import RunConfig, build_report
from orbitope.faces import build_kostant_polytope
from orbitope.linalg import frac_str, integral_rows, lincomb
from orbitope.polytope import face_orbit
from orbitope.weyl import Orbit, reflection_neighbours
from weyl_oracle import reflection_orbit, reflection_permutations

ORDERS = [("A", 1, 2), ("A", 2, 6), ("A", 3, 24), ("B", 2, 8), ("B", 3, 48),
          ("C", 3, 48), ("G", 2, 12), ("D", 4, 192), ("F", 4, 1152)]


@pytest.mark.parametrize("label,rank,order", ORDERS)
def test_group_orders(label, rank, order):
    group = get_group(label, rank)
    assert group.order == order
    assert len(get_oracle(label, rank)) == order


@pytest.mark.parametrize("rank,order", [(6, 51840), (7, 2903040), (8, 696729600)])
def test_type_e_orders_without_enumeration(rank, order):
    """|W| is the product of the degrees; nothing is enumerated to get it."""
    group = build_weyl_group(get_rs("E", rank), cap=10 ** 9)
    assert group.order == len(group) == order
    assert sorted(vars(group)) == ["order", "root_system"]


def test_enumeration_checks_the_order(monkeypatch):
    """The orbit closure must have |W| / |W_S| points, or it is a bug."""
    group = build_weyl_group(get_rs("A", 2))
    monkeypatch.setattr(group, "order", 5)
    with pytest.raises(TheoremViolationError, match="orbit closure has 6 points"):
        weyl_orbit(group, get_point("A", 2, (1, 1)))


def test_generators_square_to_identity():
    """Each simple reflection on Dynkin labels is an involution, fixing
    exactly the labels with lambda_i = 0."""
    rs = get_rs("B", 2)
    for i in range(rs.rank):
        for lam in [(1, 0), (0, 1), (3, 5)]:
            once = weyl._reflect_labels(rs.cartan_matrix, i, lam)
            assert (once == lam) == (lam[i] == 0)
            assert weyl._reflect_labels(rs.cartan_matrix, i, once) == lam


def test_elements_permute_the_root_set():
    rs = get_rs("G", 2)
    oracle = get_oracle("G", 2)
    roots = set(rs.all_roots())
    for w in oracle.words:
        assert {oracle.apply(w, a) for a in roots} == roots


def test_word_lengths_match_inversion_counts():
    """l(w) = number of positive roots sent to negative ones."""
    rs = get_rs("B", 2)
    oracle = get_oracle("B", 2)
    negatives = set()
    for a in rs.positive_roots:
        negatives.add(tuple(-c for c in a))
    for w in oracle.words:
        inversions = sum(1 for a in rs.positive_roots if oracle.apply(w, a) in negatives)
        assert len(w) == inversions


def test_words_reproduce_the_action():
    oracle = get_oracle("A", 3)
    x = get_point("A", 3, (1, 2, 3)).vector
    for w in oracle.words:
        assert oracle.reflect_along(w, x) == oracle.apply(w, x)


def test_matrices_are_killing_orthogonal():
    """Every element keeps the Killing Gram matrix of the simple coroots,
    each entry the literal sum over the roots."""
    rs = get_rs("G", 2)
    oracle = get_oracle("G", 2)

    def gram(vectors):
        return tuple(tuple(defining_sum(rs.positive_roots, u, v) for v in vectors)
                     for u in vectors)

    coroots = [rs.coroot(a) for a in rs.simple_roots]
    g = gram(coroots)
    for w in oracle.words:
        assert gram([oracle.apply(w, b) for b in coroots]) == g


@pytest.mark.parametrize("label,rank,coords,size", [
    ("A", 2, (1, 1), 6), ("A", 2, (1, 0), 3), ("G", 2, (1, 1), 12),
    ("B", 3, (1, 1, 1), 48), ("D", 4, (1, 0, 0, 0), 8)])
def test_orbit_sizes(label, rank, coords, size):
    group = get_group(label, rank)
    x = get_point(label, rank, coords)
    orbit = weyl_orbit(group, x)
    assert len(orbit) == len(orbit.ints) == size
    assert orbit_vectors(orbit)[orbit.x_index] == x.vector


def test_orbit_stable_under_every_generator():
    rs = get_rs("B", 2)
    group = get_group("B", 2)
    orbit = set(orbit_vectors(weyl_orbit(group, get_point("B", 2, (1, 1)))))
    for i in range(rs.rank):
        assert {rs.reflect(rs.simple_roots[i], v) for v in orbit} == orbit


def test_parabolic_subgroup_orbit():
    """W_J.x is the closure of x's vertex index under the permutations of J."""
    group = get_group("A", 2)
    x = get_point("A", 2, (1, 1))
    orbit = weyl_orbit(group, x)
    perms = orbit.perms
    start = (orbit.x_index,)
    assert len(face_orbit([perms[j] for j in (0,)], start)) == 2
    assert len(face_orbit([perms[j] for j in ()], start)) == 1


def test_weyl_cap():
    rs = get_rs("E", 6)
    with pytest.raises(CapExceededError):
        build_weyl_group(rs, cap=2000)
    assert build_weyl_group(rs).order == 51840
    assert build_weyl_group(get_rs("F", 4), cap=1152).order == 1152


def test_enumeration_is_deterministic():
    rs = get_rs("B", 3)
    x = get_point("B", 3, (1, 0, 1))
    g1 = build_weyl_group(rs)
    g2 = build_weyl_group(rs)
    orbit, again = weyl_orbit(g1, x), weyl_orbit(g2, x)
    assert all(getattr(orbit, a) == getattr(again, a) for a in Orbit.__slots__)


def test_vertex_permutations_compose_correctly():
    """The generator permutations, composed along each reduced word, act as
    the element's matrix does."""
    group = get_group("A", 2)
    oracle = get_oracle("A", 2)
    orbit = weyl_orbit(group, get_point("A", 2, (1, 1)))
    perms, vectors = orbit.perms, orbit_vectors(orbit)
    assert len(perms) == group.root_system.rank
    for w in oracle.words:
        for i, v in enumerate(vectors):
            j = i
            for k in reversed(w):
                j = perms[k][j]
            assert vectors[j] == oracle.apply(w, v)


#: rational, singular, non-simply-laced and type E points; E6 needs the Weyl cap raised
ORACLE_CASES = [("G", 2, ("3/2", "1")), ("B", 3, ("1/2", "0", "1")), ("C", 3, (1, 0, 1)),
                ("C", 3, (1, 1, 1)), ("F", 4, (1, 0, 0, 1)), ("E", 6, (1, 0, 0, 0, 0, 0)),
                ("E", 6, (0, 0, 0, 0, 0, 1))]


@pytest.mark.parametrize("label,rank,coords", ORACLE_CASES,
                         ids=["%s%d-%s" % (t, r, ",".join(map(str, c))) for t, r, c in ORACLE_CASES])
def test_label_action_matches_ambient_reflections(label, rank, coords):
    """The orbit and the generator permutations equal those closed by
    reflecting ambient vectors through `RootSystem.reflect`, and every point's
    labels, integer row and vector agree."""
    rs = get_rs(label, rank)
    group = build_weyl_group(rs, cap=10 ** 9)
    x = chamber_point(rs, coords)
    orbit = weyl_orbit(group, x)
    vectors = orbit_vectors(orbit)
    assert vectors == reflection_orbit(rs, x.vector)
    assert len(orbit) == group.orbit_size(x)
    assert orbit.perms == reflection_permutations(rs, vectors)
    (x_labels,), label_scale = integral_rows([x.coords])
    assert orbit.labels[orbit.x_index] == x_labels
    for k, (labels, v) in enumerate(zip(orbit.labels, vectors)):
        assert orbit.index[labels] == k
        assert lincomb([Fraction(n, label_scale) for n in labels], rs.fundamental_weights) == v


#: one closure per type, E6 past the default Weyl cap
CLOSURE_CASES = [("A", 3, (1, 1, 1)), ("B", 3, (1, 0, 1)), ("C", 3, (1, 0, 1)),
                 ("D", 4, (1, 1, 1, 1)), ("F", 4, (1, 0, 0, 1)), ("G", 2, ("3/2", 1)),
                 ("E", 6, (1, 0, 0, 0, 0, 0))]


@pytest.mark.parametrize("label,rank,coords", CLOSURE_CASES,
                         ids=["%s%d-%s" % (t, r, ",".join(map(str, c)))
                              for t, r, c in CLOSURE_CASES])
def test_one_closure_gives_permutations_paths_and_vertex_table(label, rank, coords):
    """The closure's generator permutations are the ambient reflections'; the
    search tree's path from each point moves it to x under the ambient
    reflections; the Kostant polytope's vertices, derived from its integer
    table, are the ambient orbit, and the report renders them by `frac_str`."""
    rs = get_rs(label, rank)
    group = build_weyl_group(rs, cap=10 ** 9)
    x = chamber_point(rs, coords)
    expected = reflection_orbit(rs, x.vector)
    poly = build_kostant_polytope(group, x)
    orbit = poly.orbit
    assert orbit.perms == reflection_permutations(rs, expected)
    for k, v in enumerate(expected):
        while k != orbit.x_index:
            i, k = orbit.tree[k]
            v = rs.reflect(rs.simple_roots[i], v)
        assert v == x.vector
    assert poly.vertices == expected
    report = build_report(RunConfig(command="polytope", type_label=label, rank=rank,
                                    point=tuple(map(str, coords))))
    assert report["polytope"]["vertices"] == [[frac_str(c) for c in v] for v in expected]


def _without(orbit, k_out):
    """The orbit with point k_out left out of its index."""
    return Orbit(labels=orbit.labels, ints=orbit.ints, scale=orbit.scale,
                 index={m: k for m, k in orbit.index.items() if k != k_out},
                 x_index=orbit.x_index, perms=orbit.perms, tree=orbit.tree)


def test_a_reflection_image_missing_from_the_orbit_is_a_violation():
    """An orbit whose index lacks s_1.x stops the neighbour search with
    exit 2's error, naming that image, not with a KeyError."""
    rs, group = get_rs("A", 2), get_group("A", 2)
    x = get_point("A", 2, (1, 1))
    orbit = weyl_orbit(group, x)
    vectors = orbit_vectors(orbit)
    s1_x = vectors.index(rs.reflect(rs.simple_roots[0], x.vector))
    assert s1_x in reflection_neighbours(group, orbit)
    holed = _without(orbit, s1_x)
    with pytest.raises(TheoremViolationError,
                       match=r"^reflection image \(%s\) of x is not in W\.x \(bug\)$"
                       % ",".join(map(frac_str, vectors[s1_x]))):
        reflection_neighbours(group, holed)


@pytest.mark.parametrize("type_label,rank,coords,size", [
    ("A", 3, (1, 0, 1), 12), ("B", 3, (0, 1, 0), 12), ("D", 4, (1, 0, 0, 0), 8),
    ("E", 7, (1, 1, 0, 0, 0, 0, 0), 4032), ("E", 8, (0, 0, 0, 0, 0, 0, 0, 1), 240),
    ("E", 8, (1, 1, 1, 1, 1, 1, 1, 1), 696729600)])
def test_orbit_size_closed_form(type_label, rank, coords, size):
    """|W.x| = |W| / |W_S|, with S reducible in A3 (1,0,1) and E7."""
    rs = get_rs(type_label, rank)
    assert build_weyl_group(rs, cap=10 ** 9).orbit_size(chamber_point(rs, coords)) == size


def test_orbit_cap_is_checked_before_the_closure(monkeypatch):
    group = build_weyl_group(get_rs("E", 7), cap=10 ** 9)
    x = get_point("E", 7, (1, 1, 0, 0, 0, 0, 0))

    def fail(*args):
        raise AssertionError("the orbit closure ran past the cap")

    monkeypatch.setattr(weyl, "_reflect_labels", fail)
    with pytest.raises(CapExceededError,
                       match="^the orbit W.x has 4032 points, the orbit cap is 200$"):
        weyl_orbit(group, x, cap=200)
