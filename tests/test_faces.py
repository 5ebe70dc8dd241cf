"""x-connected combinatorics, the face classification, and the bijection."""

from __future__ import annotations

import pytest

import orbitope.faces
from conftest import (defining_sum, get_classification, get_group, get_point, get_rs,
                      orbit_vectors)
from orbitope import (InvalidInputError, hull, parabolic_report,
                      phi_of_descriptor, psi_of_polytope_face, saturate,
                      support_set, x_connected_subsets)
from orbitope.cli import RunConfig, run
from orbitope.integrality import induce_face_weight
from orbitope.linalg import dot, vadd, vsub
from orbitope.roots import VALID_RANKS
from orbitope.weyl import DEFAULT_ORBIT_CAP


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


def _admitted_points():
    """omega_1, omega_r and 1,...,1 of every admitted (type, rank), where
    the orbit is within the default cap."""
    for type_label, ranks in VALID_RANKS.items():
        for rank in ranks:
            for coords in dict.fromkeys(((1,) + (0,) * (rank - 1), (0,) * (rank - 1) + (1,),
                                         (1,) * rank)):
                if get_group(type_label, rank).orbit_size(
                        get_point(type_label, rank, coords)) <= DEFAULT_ORBIT_CAP:
                    yield type_label, rank, coords


def test_exposedness_exact():
    """The canonical u, checked on the vertex figure at x, exposes sigma on
    every vertex of P, for every admitted type."""
    checked = set()
    for case in _admitted_points():
        cl = get_classification(*case)
        for d in cl.proper_descriptors:
            face, _ = support_set(cl.polytope, d.exposing_u)
            assert face.vertex_indices == d.sigma.vertex_indices, (case, d.I)
        checked.add(case[0])
    assert checked == set(VALID_RANKS)


def _gain_first_j_node(coeffs):
    coeffs = list(coeffs)
    if 0 in coeffs:
        coeffs[coeffs.index(0)] = 1
    return coeffs


def _lose_first_one(coeffs):
    coeffs = list(coeffs)
    coeffs[coeffs.index(1)] = 0
    return coeffs


#: per mutation of the canonical u's coefficients on the fundamental
#: coweights: the mutation, whether it changes the face exposed for a given
#: (I, J), and how the message goes on.  A 1 gained on a node of I' moves
#: nothing, as W_I' fixes x.  A negated u exposes no face through x.
_U_MUTATIONS = {
    "gains a 1 on its first J node": (_gain_first_j_node, lambda I, J: bool(J) and J[0] in I,
                                      "it exposes "),
    "loses its first 1": (_lose_first_one, lambda I, J: True, "it exposes "),
    "negated": (lambda coeffs: [-c for c in coeffs], lambda I, J: True,
                "u.(v - x) > 0 at the neighbour v = "),
}


@pytest.mark.parametrize("mutation", sorted(_U_MUTATIONS))
@pytest.mark.parametrize("case", [("A", 3, (1, 0, 1)), ("D", 4, (1, 1, 1, 1)),
                                  ("B", 3, (1, 0, 1)), ("F", 4, (1, 0, 0, 1)),
                                  ("A", 4, (0, 1, 1, 0))],
                         ids=lambda c: "%s%d %s" % (c[0], c[1], ",".join(map(str, c[2]))))
def test_a_mutated_canonical_u_exits_2(monkeypatch, case, mutation):
    """A wrong u fails the check on the vertex figure at the first proper
    descriptor whose face it changes, naming that I."""
    mutate, changes, tail = _U_MUTATIONS[mutation]
    type_label, rank, coords = case
    rs, x = get_rs(type_label, rank), get_point(type_label, rank, coords)
    expected = next(I for I in x_connected_subsets(rs, x)
                    for J in [saturate(rs, x, I)[1]] if len(J) < rank and changes(I, J))
    original = orbitope.faces.lincomb
    monkeypatch.setattr(orbitope.faces, "lincomb",
                        lambda coeffs, vectors: original(mutate(coeffs), vectors))
    code, text = run(RunConfig(command="verify-all", type_label=type_label, rank=rank,
                               point=tuple(map(str, coords)), fmt="json"))
    assert code == 2
    assert text.startswith("theorem violation: canonical u does not expose conv(W_J.x) "
                           "for I=%s: %s" % (expected, tail))


_SIGMA_CASES = [("A", 3, (1, 0, 1)), ("D", 4, (1, 1, 1, 1)), ("B", 3, (1, 0, 1))]


def _verify_all(type_label, rank, coords):
    return run(RunConfig(command="verify-all", type_label=type_label, rank=rank,
                         point=tuple(map(str, coords)), fmt="json"))


@pytest.mark.parametrize("case", _SIGMA_CASES,
                         ids=lambda c: "%s%d %s" % (c[0], c[1], ",".join(map(str, c[2]))))
def test_a_w_j_orbit_shrunk_to_x_is_not_the_exposed_face(monkeypatch, case):
    """With every W_J.x shrunk to {x}, the first I whose W_J.x has more than
    one point fails: u exposes its true sigma, not (x,)."""
    cl = get_classification(*case)
    d = next(d for d in cl.descriptors if len(d.sigma.vertex_indices) > 1)
    assert d.proper
    original = orbitope.faces.closure
    monkeypatch.setattr(orbitope.faces, "closure", lambda start, step: (
        set(start) if isinstance(start, list) and len(start) == 1 else original(start, step)))
    code, text = _verify_all(*case)
    assert code == 2
    assert text == ("theorem violation: canonical u does not expose conv(W_J.x) for I=%s: "
                    "it exposes %s, not (%d,)\n"
                    % (d.I, d.sigma.vertex_indices, cl.polytope.x_index))


@pytest.mark.parametrize("case", _SIGMA_CASES,
                         ids=lambda c: "%s%d %s" % (c[0], c[1], ",".join(map(str, c[2]))))
def test_a_w_pi_orbit_missing_a_vertex_is_not_the_top_face(monkeypatch, case):
    """With W_Pi.x one vertex short, the improper descriptor is not the top face."""
    size = len(get_classification(*case).polytope.vertex_ints)
    original = orbitope.faces.closure

    def short(start, step):
        found = original(start, step)
        return sorted(found)[:-1] if len(found) == size else found

    monkeypatch.setattr(orbitope.faces, "closure", short)
    assert _verify_all(*case) == (2, "theorem violation: J = Pi descriptor is not the top face\n")


_BIJECTION_CASES = _SIGMA_CASES + [("F", 4, (1, 0, 0, 1))]


@pytest.mark.parametrize("case", _BIJECTION_CASES,
                         ids=lambda c: "%s%d %s" % (c[0], c[1], ",".join(map(str, c[2]))))
def test_a_dropped_x_connected_subset_leaves_phi_not_surjective(monkeypatch, case):
    """Without its first proper subset, I = (), the list of x-connected
    subsets misses the vertex class."""
    original = orbitope.faces.x_connected_subsets
    monkeypatch.setattr(orbitope.faces, "x_connected_subsets",
                        lambda rs, x: original(rs, x)[1:])
    assert _verify_all(*case) == (2, "theorem violation: descriptors do not exhaust the "
                                     "polytope face classes (phi not surjective)\n")


@pytest.mark.parametrize("case", _BIJECTION_CASES,
                         ids=lambda c: "%s%d %s" % (c[0], c[1], ",".join(map(str, c[2]))))
def test_a_psi_onto_the_vertex_class_breaks_the_round_trip(monkeypatch, case):
    """A psi that returns the vertex-class descriptor for every face is
    caught at the first descriptor past it, I = (0,)."""
    monkeypatch.setattr(orbitope.faces, "psi_of_polytope_face",
                        lambda classification, sigma: classification.descriptor_by_I(()))
    assert _verify_all(*case) == (2, "theorem violation: psi(phi([F])) != [F] for I=(0,)\n")


def _case_id(case):
    return "%s%d %s" % (case[0], case[1], ",".join(map(str, case[2])))


#: singular points, where I = () has I' = S, the singular set, so J != I
_J_CASES = [("A", 3, (1, 0, 1)), ("B", 3, (1, 0, 1)), ("F", 4, (1, 0, 0, 1)),
            ("A", 4, (0, 1, 1, 0))]


@pytest.mark.parametrize("case", _J_CASES + [("D", 4, (1, 1, 1, 1))], ids=_case_id)
def test_a_repeated_x_connected_subset_leaves_phi_not_injective(monkeypatch, case):
    """With its second subset listed twice, two descriptors share one class."""
    original = orbitope.faces.x_connected_subsets
    monkeypatch.setattr(orbitope.faces, "x_connected_subsets",
                        lambda rs, x: (lambda s: s[:2] + s[1:])(original(rs, x)))
    assert _verify_all(*case) == (2, "theorem violation: two descriptors land in one "
                                     "polytope face class (phi not injective)\n")


@pytest.mark.parametrize("case,root", [
    pytest.param(("A", 3, (1, 0, 1)), 1, id="A3 1,0,1 alpha2"),
    pytest.param(("B", 3, (1, 0, 1)), 1, id="B3 1,0,1 alpha2"),
    pytest.param(("A", 4, (0, 1, 1, 0)), 0, id="A4 0,1,1,0 alpha1")])
def test_a_stray_orthogonal_root_breaks_the_root_data_of_the_vertex(monkeypatch, case, root):
    """A singular simple root that looks orthogonal to every facet normal
    joins the roots read off the vertex x, so I=() fails at once."""
    simple = get_rs(*case[:2]).simple_roots[root]
    original = orbitope.faces.dot
    monkeypatch.setattr(orbitope.faces, "dot",
                        lambda a, b: 0 if a == simple else original(a, b))
    assert _verify_all(*case) == (2, "theorem violation: Z_K(sigma-perp) root data disagrees "
                                     "with the descriptor (I=())\n")


@pytest.mark.parametrize("case,stabilizer", [
    pytest.param(case, stabilizer, id=_case_id(case))
    for case, stabilizer in zip(_J_CASES, [(1,), (1,), (1, 2), (0, 3)])])
def test_a_saturation_that_drops_i_prime_fails_the_stabilizer_of_sigma(monkeypatch, case,
                                                                      stabilizer):
    """With J := I, sigma = conv(W_I.x) is unchanged, and so is the face that
    u exposes, but I' still maps sigma onto itself: the vertex's stabilizer
    is the singular set, not J = ()."""
    monkeypatch.setattr(orbitope.faces, "saturate", lambda rs, x, I: ((), tuple(sorted(I))))
    assert _verify_all(*case) == (2, "theorem violation: the simple reflections stabilizing "
                                     "sigma are %s, not J=() (I=())\n" % (stabilizer,))


@pytest.mark.parametrize("case,counts", [
    pytest.param(case, counts, id=_case_id(case)) for case, counts in zip(_J_CASES, [
        (24, 24, 14, 1), (48, 48, 26, 1), (1152, 1152, 672, 240, 1), (120, 120, 60, 10, 1)])])
def test_class_sizes_over_w_i_miss_the_f_vector(monkeypatch, case, counts):
    """|W|/|W_I| in place of |W|/|W_J| overcounts the classes whose I' is
    not empty, the vertices first."""
    cl = get_classification(*case)
    I_of = {d.J: d.I for d in cl.descriptors}
    original = orbitope.faces._order
    monkeypatch.setattr(orbitope.faces, "_order", lambda rs, J: original(rs, I_of[J]))
    assert _verify_all(*case) == (2, "theorem violation: face counts |W|/|W_J| by |I| are %s, "
                                     "but the f-vector is %s\n"
                                  % (counts, cl.polytope.f_vector()))


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
            rep_face = cl.polytope.find_face(orbit.members[0])
            assert psi_of_polytope_face(cl, rep_face).I == d.I


def test_phi_improper_is_top():
    cl = get_classification("A", 2, (1, 1))
    orbit = phi_of_descriptor(cl, cl.top_descriptor)
    assert orbit.members == (cl.polytope.top.vertex_indices,)
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


#: one point per (type, rank) from A2 to G2, singular and regular alike
ORBITOPE_FACE_POINTS = [
    ("A", 2, (1, 1)), ("A", 3, (1, 0, 1)), ("A", 4, (0, 1, 1, 0)),
    ("A", 5, (1, 0, 1, 0, 1)), ("B", 3, ("1/2", 0, 1)), ("B", 4, (0, 1, 0, 1)),
    ("C", 3, (1, 0, 1)), ("C", 4, ("1/3", 0, 1, 2)), ("D", 4, (1, 1, 1, 1)),
    ("D", 5, (0, 1, 0, 0, 1)), ("E", 6, (1, 0, 0, 0, 0, 0)),
    ("E", 7, (0, 0, 0, 0, 0, 0, 1)), ("F", 4, (1, 0, 0, 1)), ("G", 2, ("3/2", 1)),
    ("G", 2, (0, 1)),
]


def _reflection_orbit(rs, I, point):
    """W_I.point, closed by the Fraction reflections in the simple roots of I."""
    seen = {point}
    frontier = [point]
    while frontier:
        v = frontier.pop()
        for i in I:
            image = rs.reflect(rs.simple_roots[i], v)
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    return seen


@pytest.mark.parametrize("label,rank,coords", ORBITOPE_FACE_POINTS)
def test_every_face_is_a_translated_orbitope_of_its_induced_weight(label, rank, coords):
    """Every face is a coadjoint orbitope: sigma = W_I.x1 + (x - x1), x1 the
    induced face weight, closed here by ambient reflections, not labels."""
    cl = get_classification(label, rank, coords)
    rs, x = cl.root_system, cl.x.vector
    for d in cl.descriptors:
        if not d.I:
            continue
        x1 = induce_face_weight(rs, cl.x, d).x1
        expected = {vadd(v, vsub(x, x1)) for v in _reflection_orbit(rs, d.I, x1)}
        assert {cl.polytope.vertices[i] for i in d.sigma.vertex_indices} == expected, d.I
