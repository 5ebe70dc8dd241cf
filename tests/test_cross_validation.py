"""Independent oracles for the hull code and wider type coverage.

The double-description hull is load-bearing for every verification in the
package, so it gets checked here against algorithms that share none of its
code: an exact monotone-chain hull in the plane, qhull in higher dimension,
and randomized classifications over all supported types.
"""

from __future__ import annotations

import random
from fractions import Fraction as Q

import numpy as np
import pytest

from conftest import get_classification, get_group, get_oracle, get_point, get_rs
from orbitope import (CapExceededError, build_poset, build_weyl_group,
                      chamber_point, check_integral, classify_faces, hull,
                      induce_face_weight, parabolic_report, weyl_orbit)
from orbitope.linalg import vec


def _monotone_chain(points):
    """Exact planar convex hull, counterclockwise, an independent algorithm."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def test_hull_against_monotone_chain_2d():
    rng = random.Random(99)
    for trial in range(40):
        pts = [(Q(rng.randint(-8, 8), rng.randint(1, 3)),
                Q(rng.randint(-8, 8), rng.randint(1, 3)))
               for _ in range(rng.randint(3, 25))]
        expect = _monotone_chain(pts)
        if len(expect) <= 2:
            continue
        p = hull(pts)
        assert set(p.vertices) == set(expect), trial
        assert len(p.facets) == len(expect)
        assert p.f_vector() == (len(expect), len(expect), 1)


def test_hull_against_qhull_3d_and_4d():
    from scipy.spatial import ConvexHull
    rng = random.Random(17)
    for dim in (3, 4):
        for trial in range(12):
            pts = {tuple(Q(rng.randint(-6, 6)) for _ in range(dim))
                   for _ in range(rng.randint(dim + 2, 20))}
            pts = sorted(pts)
            arr = np.array([[float(c) for c in p] for p in pts])
            try:
                qh = ConvexHull(arr)
            except Exception:
                continue  # degenerate sample (flat); the exact path has its own tests
            p = hull(pts)
            if p.affine_dim != dim:
                continue
            ours = {pts[i] for i in range(len(pts))} & set(p.vertices)
            theirs = {pts[i] for i in qh.vertices}
            assert set(p.vertices) == theirs, trial


def test_classify_c3_regular():
    cl = get_classification("C", 3, (1, 1, 1))
    assert cl.bijection_verified
    assert len(cl.proper_descriptors) == 7  # all proper subsets of Pi
    poset = build_poset(cl)
    assert poset.cover_edges  # nonempty Hasse diagram


def test_classify_f4_singular_points():
    """F4: Weyl order 1152 is inside the cap; singular orbits stay small."""
    for coords in [(1, 0, 0, 0), (0, 0, 0, 1)]:
        cl = get_classification("F", 4, coords)
        assert cl.bijection_verified
        rs = cl.root_system
        for d in cl.proper_descriptors:
            rep = parabolic_report(cl, d)
            assert rep["nilradical_positive_roots"] == rs.n_positive - len(d.sub_roots_J)
        x = get_point("F", 4, coords)
        if check_integral(rs, x).is_integral:
            for d in cl.proper_descriptors:
                if d.I:
                    assert induce_face_weight(rs, x, d).is_integral


def test_f4_regular_orbit_exceeds_hull_cap():
    rs = get_rs("F", 4)
    group = get_group("F", 4)
    x = get_point("F", 4, (1, 1, 1, 1))
    with pytest.raises(CapExceededError):
        classify_faces(rs, group, x)


def test_component_types_of_full_diagrams():
    for label, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("F", 4),
                        ("G", 2), ("E", 6), ("E", 7), ("E", 8)]:
        rs = get_rs(label, rank)
        assert rs.component_type(tuple(range(rank))) == "%s%d" % (label, rank)
    # named sub-diagrams, in the simple-root numbering of the realization
    for label, rank, comp, expected in [
            ("F", 4, (1, 2), "B2"), ("F", 4, (0, 1, 2), "B3"), ("F", 4, (1, 2, 3), "C3"),
            ("D", 5, (2, 3, 4), "A3"), ("D", 5, (1, 2, 3, 4), "D4"),
            ("E", 6, (1, 2, 3, 4), "D4"), ("E", 6, (0, 1, 2, 3, 4), "D5"),
            ("E", 7, (0, 1, 2, 3, 4, 5), "E6"), ("E", 8, (0, 1, 2, 3, 4, 5, 6), "E7"),
            ("B", 4, (1, 2, 3), "B3"), ("C", 4, (1, 2, 3), "C3"), ("C", 4, (2, 3), "B2"),
            ("G", 2, (1,), "A1")]:
        assert get_rs(label, rank).component_type(comp) == expected, (label, rank, comp)


def test_random_rational_points_bijection_property():
    """Seeded random chamber points across all grid types: the classification
    and its polytope cross-checks must succeed for arbitrary rational data."""
    rng = random.Random(31415)
    types = [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("G", 2), ("C", 3)]
    runs = 0
    while runs < 12:
        label, rank = types[rng.randrange(len(types))]
        coords = tuple(Q(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(rank))
        if all(c == 0 for c in coords):
            continue
        rs = get_rs(label, rank)
        group = get_group(label, rank)
        cl = classify_faces(rs, group, chamber_point(rs, coords))
        assert cl.bijection_verified, (label, rank, coords)
        build_poset(cl)
        runs += 1


def test_orbit_size_times_stabilizer_is_group_order():
    for label, rank, coords in [("A", 2, (1, 0)), ("B", 3, (0, 1, 0)),
                                ("D", 4, (1, 0, 0, 0)), ("G", 2, (0, 2))]:
        group = get_group(label, rank)
        x = get_point(label, rank, coords)
        orbit = weyl_orbit(group, x)
        oracle = get_oracle(label, rank)
        stab = sum(1 for w in oracle.words if oracle.apply(w, x.vector) == x.vector)
        assert len(orbit) * stab == group.order


def test_large_rational_coordinates_stay_exact():
    rs = get_rs("A", 2)
    group = get_group("A", 2)
    x = chamber_point(rs, (Q(10 ** 9, 7), Q(3, 10 ** 6)))
    cl = classify_faces(rs, group, x)
    assert cl.bijection_verified
    assert len(cl.proper_descriptors) == 3
