"""Exact hulls, face lattices, support sets, and the Weyl action on faces."""

from __future__ import annotations

import random
from fractions import Fraction as Q

import numpy as np
import pytest

from conftest import defining_sum, get_group, get_oracle, get_point, get_rs, orbit_vectors
from orbitope import (CapExceededError, InvalidInputError, act_on_faces, hull,
                      support_set, weyl_orbit)
from orbitope.linalg import dot, vec
from polytope_oracle import fixed_vector_in_cone
from tests_util_det import minor_rank
from weyl_oracle import reflection_permutations


def _orbit_polytope(label, rank, coords):
    rs = get_rs(label, rank)
    group = get_group(label, rank)
    orbit = weyl_orbit(group, get_point(label, rank, coords))
    return rs, group, hull(orbit_vectors(orbit))


def test_unit_square():
    p = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert p.f_vector() == (4, 4, 1)
    assert len(p.facets) == 4
    for f in p.facets:
        assert all(dot(f.normal, v) <= f.offset for v in p.vertices)


def test_interior_points_are_dropped():
    p = hull([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)])
    assert len(p.vertices) == 4


def test_degenerate_single_vertex():
    p = hull([("1/2", 3), ("1/2", 3)])
    assert p.affine_dim == 0
    assert p.f_vector() == (1,)
    assert p.facets == ()


def test_segment_and_lower_dimensional_grading():
    p = hull([(0, 0, 0), (1, 1, 1), ("1/2", "1/2", "1/2")])
    assert p.affine_dim == 1
    assert p.f_vector() == (2, 1)


def test_hull_cap():
    pts = [(i, i * i) for i in range(30)]
    with pytest.raises(CapExceededError):
        hull(pts, cap=10)


def test_hexagon_and_triangle():
    _, _, hexa = _orbit_polytope("A", 2, (1, 1))
    assert hexa.f_vector() == (6, 6, 1)
    _, _, tri = _orbit_polytope("A", 2, (1, 0))
    assert tri.f_vector() == (3, 3, 1)


def test_cube_from_b3_orbit():
    """The orbit of the last fundamental coweight direction is a cube-like set."""
    rs, group, p = _orbit_polytope("B", 3, (0, 0, 1))
    assert p.f_vector()[0] == 8


def test_face_lattice_closure_under_intersection():
    _, _, p = _orbit_polytope("B", 2, (1, 1))
    keys = {f.vertex_indices for faces in p.face_lattice.values() for f in faces}
    for d, faces in p.face_lattice.items():
        for f in faces:
            for g in p.face_lattice.get(d + 1, ()):
                inter = tuple(sorted(set(f.vertex_indices) & set(g.vertex_indices)))
                if inter:
                    assert inter in keys


def test_face_dims_match_vertex_affine_rank():
    """Oracle: recompute each face dimension from its vertex differences."""
    from orbitope.linalg import vsub
    for args in [("A", 2, (1, 1)), ("B", 2, (2, 1)), ("B", 3, (1, 0, 1))]:
        _, _, p = _orbit_polytope(*args)
        for faces in p.face_lattice.values():
            for f in faces:
                vs = [p.vertices[i] for i in f.vertex_indices]
                assert minor_rank([vsub(v, vs[0]) for v in vs[1:]]) == f.dim


def test_support_set_oracle_random_u():
    """Oracle soundness: argmax over vertices == the returned support set."""
    rs, _, p = _orbit_polytope("B", 2, (1, 2))
    rng = random.Random(5)
    for _ in range(50):
        u = vec([rng.randint(-6, 6) for _ in range(p.ambient_dim)])
        if all(c == 0 for c in u):
            continue
        face, h = support_set(p, u)
        values = [dot(v, u) for v in p.vertices]
        assert h == max(values)
        assert face.vertex_indices == tuple(i for i, val in enumerate(values) if val == h)


def test_support_at_regular_point_is_its_vertex():
    """Oracle: the six inner products <wx, x> are maximized at x only."""
    rs, _, p = _orbit_polytope("A", 2, (1, 1))
    x = get_point("A", 2, (1, 1)).vector
    values = [defining_sum(rs.positive_roots, v, x) for v in p.vertices]
    best = max(values)
    assert values.count(best) == 1
    face, h = support_set(p, x)
    assert face.vertex_indices == (values.index(best),)
    assert rs.killing_ratio * h == best


def test_support_edge_normal_exposes_edge():
    _, _, p = _orbit_polytope("A", 2, (1, 1))
    for f in p.facets:
        face, _ = support_set(p, f.normal)
        assert face.vertex_indices == f.vertex_indices


def test_support_rejects_zero():
    _, _, p = _orbit_polytope("A", 2, (1, 1))
    with pytest.raises(InvalidInputError):
        support_set(p, (0, 0, 0))


def test_support_rejects_u_of_another_length():
    """A shorter or longer u is not paired on the common coordinates."""
    p = hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    for u in ((1,), (1, 0, 0, 5)):
        with pytest.raises(InvalidInputError):
            support_set(p, u)


def test_act_on_faces_orbit_counts():
    rs, _, hexa = _orbit_polytope("A", 2, (1, 1))
    orbits = act_on_faces(reflection_permutations(rs, hexa.vertices), hexa.face_lattice)
    assert [len(orbits[d]) for d in (0, 1, 2)] == [1, 2, 1]
    assert sorted(len(o.members) for o in orbits[1]) == [3, 3]
    rs2, _, tri = _orbit_polytope("A", 2, (1, 0))
    orbits2 = act_on_faces(reflection_permutations(rs2, tri.vertices), tri.face_lattice)
    assert [len(orbits2[d]) for d in (0, 1, 2)] == [1, 1, 1]


def test_act_on_faces_matches_enumerated_group():
    """Orbits closed under the simple reflections equal the images of each
    face under every enumerated element, applied to its vertices."""
    for args in [("A", 2, (1, 1)), ("B", 3, (1, 0, 1)), ("G", 2, (1, 1)),
                 ("D", 4, (0, 1, 0, 0))]:
        rs, _, p = _orbit_polytope(*args)
        images = get_oracle(*args[:2]).vertex_images(p.vertices)
        perms = reflection_permutations(rs, p.vertices)
        for dim, orbits in act_on_faces(perms, p.face_lattice).items():
            assert sorted(m for o in orbits for m in o.members) == \
                [f.vertex_indices for f in p.face_lattice[dim]]
            for o in orbits:
                assert list(o.members) == sorted(o.members)
                assert set(o.members) == {tuple(sorted(img[i] for i in o.members[0]))
                                          for img in images}


def test_act_on_faces_rejects_images_outside_the_faces():
    """The faces through a regular x are closed under no simple reflection."""
    from orbitope import TheoremViolationError
    from orbitope.faces import build_kostant_polytope
    poly = build_kostant_polytope(get_group("A", 2), get_point("A", 2, (1, 1)))
    edge = poly.faces_through_x[1][0]
    assert act_on_faces([], poly.faces_through_x)[1][0].members == (edge.vertex_indices,)
    with pytest.raises(TheoremViolationError):
        act_on_faces(poly.perms, poly.faces_through_x)


def _fixed_subspace_dim(oracle, words):
    """Dimension of the subspace of t fixed by every element of the list:
    the kernel of the coefficients c with Sum c_j (w(omega_j) - omega_j) = 0."""
    rs = oracle.root_system
    rows = []
    for w in words:
        moved = [tuple(a - b for a, b in zip(oracle.apply(w, c), c))
                 for c in rs.fundamental_weights]
        rows.extend(zip(*moved))
    return rs.rank - minor_rank(rows)


def test_face_stabilizers_on_hexagon():
    _, group, hexa = _orbit_polytope("A", 2, (1, 1))
    oracle = get_oracle("A", 2)
    images = oracle.vertex_images(hexa.vertices)
    x = get_point("A", 2, (1, 1)).vector
    vertex = hexa.find_face((hexa.vertices.index(x),))
    stab = oracle.face_stabilizer(images, vertex.vertex_indices)
    assert len(stab) == 1 and _fixed_subspace_dim(oracle, stab) == 2
    edge = hexa.face_lattice[1][0]
    stab_e = oracle.face_stabilizer(images, edge.vertex_indices)
    assert len(stab_e) == 2 and _fixed_subspace_dim(oracle, stab_e) == 1
    stab_top = oracle.face_stabilizer(images, hexa.top.vertex_indices)
    assert len(stab_top) == group.order


def test_fixed_vector_in_cone_exposes_and_is_stable():
    """The scaled normal sum exposes its face and is fixed by the face's
    stabilizer, enumerated by the oracle, on every proper face; F4 (1,0,0,0)
    has faces whose plain normal sum is not fixed."""
    for args in [("A", 2, (1, 1)), ("A", 2, (1, 0)), ("B", 2, (1, 1)), ("F", 4, (1, 0, 0, 0))]:
        _, _, p = _orbit_polytope(*args)
        oracle = get_oracle(*args[:2])
        images = oracle.vertex_images(p.vertices)
        for f in p.proper_faces():
            u = fixed_vector_in_cone(p, f)
            face, _ = support_set(p, u)
            assert face.vertex_indices == f.vertex_indices
            stab = oracle.face_stabilizer(images, f.vertex_indices)
            assert stab
            for w in stab:
                assert oracle.apply(w, u) == u


def test_fixed_vector_rejects_top():
    _, _, p = _orbit_polytope("A", 2, (1, 1))
    with pytest.raises(InvalidInputError):
        fixed_vector_in_cone(p, p.top)


def test_normal_cone_convexity_small():
    """Two exposing vectors of one face combine to exposing vectors again."""
    from orbitope.linalg import vadd, zero_vec
    _, _, p = _orbit_polytope("B", 2, (1, 1))
    rng = random.Random(3)
    for f in p.proper_faces():
        u1 = fixed_vector_in_cone(p, f)
        u2 = zero_vec(p.ambient_dim)
        for fc in p.facets:
            if set(f.vertex_indices) <= set(fc.vertex_indices):
                u2 = vadd(u2, fc.normal)
        assert support_set(p, u2)[0].vertex_indices == f.vertex_indices
        for _ in range(20):
            l1 = Q(rng.randint(0, 5), rng.randint(1, 3))
            l2 = Q(rng.randint(0, 5), rng.randint(1, 3))
            if l1 == 0 and l2 == 0:
                continue
            u = tuple(l1 * a + l2 * b for a, b in zip(u1, u2))
            face, _ = support_set(p, u)
            assert face.vertex_indices == f.vertex_indices


def test_d4_regular_hull_f_vector():
    _, _, p = _orbit_polytope("D", 4, (1, 1, 1, 1))
    assert p.f_vector() == (192, 384, 240, 48, 1)


# Hulls whose points are not integral, so the integer core has to scale the
# lifted rows, the facet values and the offsets by common denominators.
_SQUARE_IN_THIRDS = [(Q(1, 3), Q(-2, 3)), (Q(5, 3), Q(-2, 3)), (Q(1, 3), Q(1, 3)),
                     (Q(5, 3), Q(1, 3)), (1, Q(-2, 3)), (Q(2, 3), 0)]
_NON_INTEGRAL_HULLS = {
    "B3 1/2,0,1": lambda: _orbit_polytope("B", 3, (Q(1, 2), 0, 1))[2],
    "G2 3/2,1": lambda: _orbit_polytope("G", 2, (Q(3, 2), 1))[2],
    "square in thirds": lambda: hull(_SQUARE_IN_THIRDS),
}


@pytest.mark.parametrize("name", sorted(_NON_INTEGRAL_HULLS))
def test_non_integral_facets_are_tight_exactly_on_their_vertices(name):
    p = _NON_INTEGRAL_HULLS[name]()
    assert any(c.denominator > 1 for v in p.vertices for c in v)
    for f in p.facets:
        values = [dot(f.normal, v) for v in p.vertices]
        assert max(values) <= f.offset
        assert tuple(i for i, val in enumerate(values) if val == f.offset) == f.vertex_indices


@pytest.mark.parametrize("name", sorted(_NON_INTEGRAL_HULLS))
def test_non_integral_facet_count_matches_qhull(name):
    from scipy.spatial import ConvexHull
    p = _NON_INTEGRAL_HULLS[name]()
    pts = np.array([[float(c) for c in v] for v in p.vertices])
    centered = pts - pts.mean(axis=0)
    _, sing, vt = np.linalg.svd(centered)
    dim = int((sing > 1e-9 * sing.max()).sum())
    assert dim == p.affine_dim
    proj = centered @ vt[:dim].T
    qh = ConvexHull(proj)
    tight_sets = {tuple(np.flatnonzero(np.abs(proj @ eq[:-1] + eq[-1]) < 1e-7))
                  for eq in qh.equations}
    assert len(tight_sets) == len(p.facets)
    assert sorted(qh.vertices) == list(range(len(p.vertices)))


_FACET_NORMAL_HULLS = dict(_NON_INTEGRAL_HULLS,
                           **{"G2 1,1": lambda: _orbit_polytope("G", 2, (1, 1))[2]})


@pytest.mark.parametrize("name", sorted(_FACET_NORMAL_HULLS))
def test_facet_normals_span_face_complement(name):
    """The normals of the facets through a proper face lie in the direction
    space of P, are orthogonal to the face under the dot product and
    span a space of the complementary dimension: the fact psi reads the
    face's orthogonal complement from."""
    from orbitope.linalg import vsub
    p = _FACET_NORMAL_HULLS[name]()
    directions = [vsub(v, p.vertices[0]) for v in p.vertices[1:]]
    for f in p.proper_faces():
        normals = [fct.normal for fct in p.facets_through(f)]
        vs = [p.vertices[i] for i in f.vertex_indices]
        for n in normals:
            for v in vs[1:]:
                assert dot(n, vsub(v, vs[0])) == 0
        assert minor_rank(normals) == p.affine_dim - f.dim
        assert minor_rank(directions + normals) == p.affine_dim


@pytest.mark.parametrize("name", sorted(_NON_INTEGRAL_HULLS))
def test_non_integral_support_values(name):
    """Support values computed on scaled integers equal the exact maxima."""
    p = _NON_INTEGRAL_HULLS[name]()
    rng = random.Random(8)
    for _ in range(20):
        u = tuple(Q(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(p.ambient_dim))
        if all(c == 0 for c in u):
            continue
        face, h = support_set(p, u)
        values = [dot(v, u) for v in p.vertices]
        assert h == max(values)
        assert face.vertex_indices == tuple(i for i, val in enumerate(values) if val == h)
