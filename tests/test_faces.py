"""x-connected combinatorics, the face classification, and the bijection."""

from __future__ import annotations

import pytest

from conftest import defining_sum, get_classification, get_point, get_rs, orbit_vectors
from orbitope import (InvalidInputError, hull, parabolic_report,
                      phi_of_descriptor, psi_of_polytope_face, saturate,
                      support_set, x_connected_subsets)
from orbitope.linalg import dot


def test_x_connected_subsets_regular_is_powerset():
    rs = get_rs("A", 2)
    x = get_point("A", 2, (1, 1))
    assert x_connected_subsets(rs, x) == ((), (0,), (1,), (0, 1))


def test_x_connected_subsets_a2_singular():
    """Oracle: enumerate all four subsets and test the component condition."""
    rs = get_rs("A", 2)
    x = get_point("A", 2, (1, 0))  # alpha_2 vanishes on x
    assert x_connected_subsets(rs, x) == ((), (0,), (0, 1))


def test_x_connected_subsets_grassmannian():
    """The A4 list from the worked example: empty, I^1_k, I^2_k for k=2..4."""
    rs = get_rs("A", 4)
    x = get_point("A", 4, (0, 5, 0, 0))
    expected = {(), (1,), (0, 1), (1, 2), (0, 1, 2), (1, 2, 3), (0, 1, 2, 3)}
    assert set(x_connected_subsets(rs, x)) == expected


def test_saturation_grassmannian_verbatim():
    """J^i_k = I^i_k + {alpha_{k+2}, ..., alpha_n} for both families."""
    rs = get_rs("A", 4)
    x = get_point("A", 4, (0, 5, 0, 0))
    for k in (2, 3, 4):
        i1 = tuple(range(0, k))
        tail = tuple(range(k + 1, 4))
        assert saturate(rs, x, i1) == (tail, tuple(sorted(i1 + tail)))
        i2 = tuple(range(1, k))
        assert saturate(rs, x, i2) == (tail, tuple(sorted(i2 + tail)))


def test_saturation_empty_set_is_all_singular_roots():
    rs = get_rs("A", 4)
    x = get_point("A", 4, (0, 5, 0, 0))
    i_prime, j = saturate(rs, x, ())
    assert i_prime == j == (0, 2, 3)


def test_saturation_regular_point_is_identity():
    rs = get_rs("B", 3)
    x = get_point("B", 3, (1, 1, 1))
    for subset in [(), (0,), (1, 2)]:
        i_prime, j = saturate(rs, x, subset)
        assert i_prime == () and j == subset


def test_saturate_rejects_non_x_connected():
    rs = get_rs("A", 2)
    x = get_point("A", 2, (1, 0))
    with pytest.raises(InvalidInputError):
        saturate(rs, x, (1,))


def test_classify_a2_regular():
    cl = get_classification("A", 2, (1, 1))
    assert cl.bijection_verified
    assert len(cl.proper_descriptors) == 3
    assert [d.I for d in cl.descriptors] == [(), (0,), (1,), (0, 1)]
    assert [d.sigma.dim for d in cl.descriptors] == [0, 1, 1, 2]
    assert cl.top_descriptor.improper
    classes = cl.classes
    assert [len(classes[d]) for d in (0, 1)] == [1, 2]


def test_classify_pn_counts():
    """A_n with x = omega_1: exactly n proper classes, graded 0..n-1."""
    for n in (2, 3, 4):
        cl = get_classification("A", n, tuple([1] + [0] * (n - 1)))
        proper = cl.proper_descriptors
        assert len(proper) == n
        assert sorted(d.sigma.dim for d in proper) == list(range(n))


def test_classify_grassmannian_counts():
    cl = get_classification("A", 4, (0, 5, 0, 0))
    assert len(cl.descriptors) == 7
    assert len(cl.proper_descriptors) == 6
    assert cl.bijection_verified
    d = cl.descriptor_by_I((1,))
    assert d.sigma.dim == 1  # conv(W_J.x) for I^2_2 is a segment


def test_classify_dimension_bookkeeping():
    cl = get_classification("A", 4, (0, 5, 0, 0))
    for d in cl.descriptors:
        assert d.dim_face == len(d.I) + 2 * len(d.sub_roots_I)
        assert d.dim_KprimeF == len(d.I_prime) + 2 * len(d.sub_roots_Iprime)
        assert d.dim_ZF == 4 - len(d.J)


def test_exposing_vectors_vanish_on_j_and_are_positive_off_j():
    rs = get_rs("B", 3)
    cl = get_classification("B", 3, (1, 0, 1))
    for d in cl.proper_descriptors:
        u = d.exposing_u
        for i in range(rs.rank):
            value = dot(rs.simple_roots[i], u)
            assert value == 0 if i in d.J else value > 0


def test_exposedness_exact():
    for args in [("A", 2, (1, 1)), ("B", 2, (1, 1)), ("G", 2, (1, 0))]:
        cl = get_classification(*args)
        for d in cl.proper_descriptors:
            face, _ = support_set(cl.polytope, d.exposing_u)
            assert face.vertex_indices == d.sigma.vertex_indices


def test_support_function_is_orbit_maximum():
    """h_P(u) = max over the Weyl orbit of <., u> for any u in t."""
    import random
    rs = get_rs("B", 2)
    cl = get_classification("B", 2, (1, 2))
    rng = random.Random(9)
    from orbitope.linalg import vec
    for _ in range(30):
        u = vec([rng.randint(-5, 5) for _ in range(rs.ambient_dim)])
        if all(c == 0 for c in u):
            continue
        _, h = support_set(cl.polytope, u)
        assert rs.killing_ratio * h == max(defining_sum(rs.positive_roots, v, u)
                                           for v in cl.polytope.vertices)


def test_psi_on_hexagon_and_triangle():
    cl = get_classification("A", 2, (1, 1))
    hexa = cl.polytope
    x = cl.x.vector
    vertex = hexa.find_face((hexa.vertices.index(x),))
    assert psi_of_polytope_face(cl, vertex).I == ()
    # every edge, most of them away from x, from the full hull's lattice
    for edge in hull(hexa.vertices).face_lattice[1]:
        d = psi_of_polytope_face(cl, edge)
        assert len(d.I) == 1
    # the triangle's edges all belong to the unique |I| = 1 class
    cl2 = get_classification("A", 2, (1, 0))
    tri = cl2.polytope
    for edge in hull(tri.vertices).face_lattice[1]:
        assert psi_of_polytope_face(cl2, edge).I == (0,)


def test_psi_matches_exposing_direction():
    """An edge exposed by u with alpha_1(u) = 0 has descriptor I = {alpha_1}."""
    cl = get_classification("A", 2, (1, 1))
    rs = cl.root_system
    u = cl.descriptor_by_I((0,)).exposing_u
    assert dot(rs.simple_roots[0], u) == 0
    face, _ = support_set(cl.polytope, u)
    assert psi_of_polytope_face(cl, face).I == (0,)


def test_psi_rejects_top():
    cl = get_classification("A", 2, (1, 1))
    with pytest.raises(InvalidInputError):
        psi_of_polytope_face(cl, cl.polytope.top)


def test_psi_rejects_a_face_of_another_polytope():
    """An edge of the B3 orbitope's polytope is no face of the A2 hexagon."""
    cl = get_classification("A", 2, (1, 1))
    foreign = hull(get_classification("B", 3, (1, 1, 1)).polytope.vertices)
    edge = next(e for e in foreign.face_lattice[1]
                if cl.polytope.find_face(e.vertex_indices) is None)
    with pytest.raises(InvalidInputError):
        psi_of_polytope_face(cl, edge)


def test_phi_psi_inverse_on_all_classes():
    for args in [("A", 2, (1, 1)), ("B", 2, (0, 1)), ("A", 3, (1, 1, 1))]:
        cl = get_classification(*args)
        for d in cl.proper_descriptors:
            orbit = phi_of_descriptor(cl, d)
            rep_face = cl.polytope.find_face(orbit.representative)
            assert psi_of_polytope_face(cl, rep_face).I == d.I


def test_phi_improper_is_top():
    cl = get_classification("A", 2, (1, 1))
    orbit = phi_of_descriptor(cl, cl.top_descriptor)
    assert orbit.representative == cl.polytope.top.vertex_indices
    assert cl.top_descriptor.improper


def test_parabolic_reports_grassmannian():
    cl = get_classification("A", 4, (0, 5, 0, 0))
    rep = parabolic_report(cl, cl.descriptor_by_I((0, 1, 2)))
    assert rep["levi_components"] == ["A3"]
    assert rep["ext_type"]["description"] == "Gr(2,4)"
    assert rep["ext_type"]["components"] == [{"type": "A3", "marked_nodes": [2]}]
    rep2 = parabolic_report(cl, cl.descriptor_by_I((1, 2)))
    assert rep2["levi_components"] == ["A2"]
    assert rep2["ext_type"]["description"] == "P^2"
    rep3 = parabolic_report(cl, cl.descriptor_by_I((0, 1)))
    assert rep3["E"] == ["a1", "a2", "a4"]
    assert rep3["levi_components"] == ["A2", "A1"]
    assert rep3["levi_type"] == "A2xA1+T1"
    assert rep["levi_type"] == "A3+T1"


def test_parabolic_report_borel_case():
    cl = get_classification("A", 2, (1, 1))
    rep = parabolic_report(cl, cl.descriptor_by_I(()))
    assert rep["E"] == [] and rep["levi_components"] == []
    assert rep["levi_torus_rank"] == 2 and rep["levi_type"] == "T2"
    assert rep["ext_type"]["description"] == "point"
    assert rep["nilradical_positive_roots"] == 3


def test_parabolic_report_rejects_improper():
    cl = get_classification("A", 2, (1, 1))
    with pytest.raises(InvalidInputError):
        parabolic_report(cl, cl.top_descriptor)


def test_kostant_vertices_equal_orbit():
    cl = get_classification("G", 2, (1, 1))
    from orbitope.weyl import weyl_orbit
    assert cl.polytope.vertices == orbit_vectors(weyl_orbit(cl.group, cl.x))


def test_exposing_vs_canonical_cone_vector_shadow():
    """If u exposes sigma and v is the stabilizer-fixed exposing vector (the
    scaled facet-normal sum), then alpha(u) = 0 forces alpha(v) = 0 and
    alpha(u) > 0 forces alpha(v) >= 0, for positive roots alpha."""
    from polytope_oracle import fixed_vector_in_cone
    for args in [("A", 2, (1, 1)), ("B", 2, (1, 0)), ("A", 3, (1, 0, 1))]:
        cl = get_classification(*args)
        rs = cl.root_system
        for d in cl.proper_descriptors:
            u = d.exposing_u
            v = fixed_vector_in_cone(cl.polytope, d.sigma)
            for a in rs.positive_roots:
                au, av = dot(a, u), dot(a, v)
                if au == 0:
                    assert av == 0
                else:
                    assert au > 0 and av >= 0


def test_classification_deterministic():
    a = get_classification("B", 2, (1, 1))
    rs = get_rs("B", 2)
    from orbitope import build_weyl_group, chamber_point, classify_faces
    b = classify_faces(rs, build_weyl_group(rs), chamber_point(rs, (1, 1)))
    assert [d.I for d in a.descriptors] == [d.I for d in b.descriptors]
    assert a.matching == b.matching
    assert [d.exposing_u for d in a.descriptors] == [d.exposing_u for d in b.descriptors]
