"""The faces through x against the whole face lattice, as an oracle.

`classify_faces` builds only the faces of the Kostant polytope P = conv(W.x)
through x, from the hull of the vertex figure at x over the neighbours
s_beta.x, and classes them under the stabilizer W_S of x.  That hull must
equal the hull of the whole figure, and a neighbour set that misses a
vertex of the figure must fail the certificate.  The oracle is the hull of the whole orbit, with
every face classed under all r simple reflections; the two must agree on all
that the reports read: the faces through x, the f-vector, the classes and
their least members, the containment order and the facets through each
face through x.  The numeric check's escape test, which reads only the facets through
x, must agree with every facet of that hull.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import orbitope.faces
import orbitope.numeric
from conftest import get_classification, get_group, get_rs, orbit_vectors
from orbitope import (InvalidInputError, PolytopeFace, RootSystem, act_on_faces,
                      build_poset, chamber_point, classify_faces, hull, phi_of_descriptor,
                      weyl_orbit)
from orbitope.cli import RunConfig, run
from orbitope.numeric import shadows_escape
from orbitope.polytope import DEFAULT_HULL_CAP, vertex_figure_points
from orbitope.weyl import reflection_neighbours
from weyl_oracle import reflection_permutations


def _verify_all_cases() -> list[tuple[str, int, tuple[str, ...]]]:
    """The golden `verify-all` cases that pass, as (type, rank, point)."""
    golden = json.loads(Path(__file__).with_name("golden_reports.json").read_text())
    cases = []
    for line, record in golden.items():
        argv = line.split()
        if argv[0] == "verify-all" and record["exit"] == 0:
            flags = dict(zip(argv[1::2], argv[2::2]))
            cases.append((flags["--type"], int(flags["--rank"]),
                          tuple(flags["--point"].split(","))))
    return cases


CASES = _verify_all_cases() + [("E", 6, ("0", "1", "0", "0", "0", "0"))]


def _compare_with_full_lattice(type_label, rank, coords):
    rs = get_rs(type_label, rank)
    group = get_group(type_label, rank)
    cl = classify_faces(rs, group, chamber_point(rs, coords))
    poly = cl.polytope
    full = hull(poly.vertices)
    assert full.vertices == poly.vertices
    x = poly.x_index

    through_x = {dim: tuple(f for f in faces if x in f.vertex_indices)
                 for dim, faces in full.face_lattice.items()}
    assert poly.faces_through_x == through_x
    assert poly.f_vector() == full.f_vector()
    assert poly.facets_through_x == tuple(f for f in full.facets if x in f.vertex_indices)

    orbits = act_on_faces(reflection_permutations(rs, full.vertices), full.face_lattice)
    orbit_of = {m: o for os in orbits.values() for o in os for m in o.members}
    assert sum(map(len, cl.classes.values())) == sum(map(len, orbits.values()))
    assert sorted(cl.matching.values()) == sorted(
        o.representative for dim, os in orbits.items() if dim < full.affine_dim for o in os)
    for d in cl.proper_descriptors:
        orbit = orbit_of[d.sigma.vertex_indices]
        assert cl.matching[d.I] == orbit.representative
        assert phi_of_descriptor(cl, d).members == tuple(m for m in orbit.members if x in m)
    for faces in poly.faces_through_x.values():
        for face in faces:
            assert poly.facets_through(face) == full.facets_through(face)

    nodes = cl.descriptors
    contained = {(i, j) for i, a in enumerate(nodes) for j, b in enumerate(nodes)
                 if i != j and any(set(m) <= set(b.sigma.vertex_indices)
                                   for m in orbit_of[a.sigma.vertex_indices].members)}
    assert build_poset(cl).order == contained
    return poly, full


@pytest.mark.parametrize("case", CASES, ids=lambda c: "%s%d %s" % (c[0], c[1], ",".join(c[2])))
def test_faces_through_x_match_the_full_lattice(case):
    _compare_with_full_lattice(*case)


@pytest.mark.parametrize("case", CASES, ids=lambda c: "%s%d %s" % (c[0], c[1], ",".join(c[2])))
def test_neighbour_hull_is_the_whole_figure(case):
    """The label step finds the ambient reflections s_beta.x != x, at most
    one per positive root, and their figure points have the hull of the
    points of every other orbit point."""
    type_label, rank, coords = case
    rs, group = get_rs(type_label, rank), get_group(type_label, rank)
    x = chamber_point(rs, coords)
    orbit = weyl_orbit(group, x)
    vectors = orbit_vectors(orbit)
    x_index = vectors.index(x.vector)
    found = reflection_neighbours(group, orbit)
    assert len(found) <= rs.n_positive
    assert found == tuple(sorted({vectors.index(RootSystem.reflect(beta, x.vector))
                                  for beta in rs.positive_roots} - {x_index}))
    near = hull(vertex_figure_points(orbit, found))
    whole = hull(vertex_figure_points(orbit, [k for k in range(len(orbit)) if k != x_index]))
    assert near.vertices == whole.vertices
    assert near.facets == whole.facets
    assert near.f_vector() == whole.f_vector()


@pytest.mark.parametrize("type_label,rank,point,message", [
    ("D", 4, "1,1,1,1", "cuts the facet"),
    ("A", 3, "1,0,1", "cuts the facet"),
    ("A", 2, "1,0", "is off the span of the figure"),
])
def test_a_neighbour_set_without_s1_x_fails_the_certificate(monkeypatch, type_label, rank,
                                                           point, message):
    """Dropping the simple neighbour s_1.x leaves out a vertex of the figure;
    on A2 (1,0) that leaves one point, so the figure loses a dimension."""
    original = reflection_neighbours

    def without_s1_x(group, orbit):
        rs = group.root_system
        vectors = orbit_vectors(orbit)
        x = vectors[orbit.x_index]
        s1_x = vectors.index(RootSystem.reflect(rs.simple_roots[0], x))
        found = original(group, orbit)
        assert s1_x in found
        return tuple(i for i in found if i != s1_x)

    monkeypatch.setattr(orbitope.faces, "reflection_neighbours", without_s1_x)
    for command in ("polytope", "verify-all"):
        code, text = run(RunConfig(command=command, type_label=type_label, rank=rank,
                                   point=tuple(point.split(",")), fmt="json"))
        assert code == 2
        assert text.startswith("theorem violation: vertex-figure certificate failed: orbit point ")
        assert message in text


def _facets_by_scan(p, face):
    """The facets containing a face, by a subset test on every facet."""
    vertices = set(face.vertex_indices)
    return tuple(f for f in p.facets if vertices.issubset(f.vertex_indices))


@pytest.mark.parametrize("case", [("A", 1, ("1",)), ("A", 2, ("1", "0")),
                                  ("A", 3, ("1", "1", "1")), ("B", 3, ("1", "0", "1")),
                                  ("C", 3, ("1", "0", "1")), ("D", 4, ("1", "1", "1", "1")),
                                  ("G", 2, ("3/2", "1"))],
                         ids=lambda c: "%s%d %s" % (c[0], c[1], ",".join(c[2])))
def test_facets_through_reads_the_facet_masks_of_the_lattice(case):
    """On every face of the vertex figure at x and of the hull of the whole
    orbit, `facets_through` gives the facets a scan of all of them finds, in
    the order of `facets`; A1's figure is a point, with no facet."""
    type_label, rank, coords = case
    group = get_group(type_label, rank)
    orbit = weyl_orbit(group, chamber_point(get_rs(type_label, rank), coords))
    figure = hull(vertex_figure_points(orbit, reflection_neighbours(group, orbit)))
    for p in (figure, hull(orbit_vectors(orbit))):
        for faces in p.face_lattice.values():
            for face in faces:
                assert p.facets_through(face) == _facets_by_scan(p, face)


def test_facets_through_rejects_a_vertex_set_that_is_no_face():
    hexagon = hull(get_classification("A", 2, ("1", "1")).polytope.vertices)
    diagonal = next(pair for pair in combinations(range(6), 2) if hexagon.find_face(pair) is None)
    for key in (diagonal, (), (0, 6)):
        with pytest.raises(InvalidInputError):
            hexagon.facets_through(PolytopeFace(key, 1))


_MEMBERSHIP_CASES = [("A", 1, ("1",)), ("A", 2, ("3/2", "0")), ("A", 3, ("1", "1", "1")),
                     ("A", 3, ("1", "0", "1")), ("A", 4, ("0", "1", "1", "0")),
                     ("A", 5, ("1", "0", "1", "0", "1"))]


@pytest.mark.parametrize("case", _MEMBERSHIP_CASES,
                         ids=lambda c: "%s%d %s" % (c[0], c[1], ",".join(c[2])))
def test_sorted_escape_test_matches_every_facet(case):
    """The numeric check's escape test reads only the facets through x; on
    float points near the boundary it must agree with all facets of the hull
    of the whole orbit."""
    poly = get_classification(*case).polytope
    full = hull(poly.vertices)
    vertices = np.array([[float(c) for c in v] for v in poly.vertices])
    rng = np.random.default_rng(0)
    points = []
    for _ in range(2000):
        chosen = rng.choice(len(vertices), size=min(len(vertices), rng.integers(1, 4)),
                            replace=False)
        mix = rng.dirichlet(np.ones(len(chosen))) @ vertices[chosen]
        points.append(rng.uniform(0.97, 1.03) * mix)
    points = np.array(points)
    normals = np.array([[float(c) for c in f.normal] for f in full.facets])
    offsets = np.array([float(f.offset) for f in full.facets])
    x_size = np.abs(vertices[poly.x_index]).max()
    slack = orbitope.numeric._INSIDE_TOL * x_size * np.abs(normals).sum(axis=1)
    outside = ~(points @ normals.T <= offsets + slack).all(axis=1)
    assert 0 < outside.sum() < len(points)
    assert np.array_equal(shadows_escape(poly, points, x_size), outside)


def test_facets_through_needs_a_face_through_x():
    poly = get_classification("A", 2, ("1", "1")).polytope
    away = poly.find_face([next(i for i in range(len(poly.vertices)) if i != poly.x_index)])
    with pytest.raises(InvalidInputError,
                       match=r"^vertex set \(%d,\) is not a face this polytope keeps$"
                       % away.vertex_indices):
        poly.facets_through(away)


_SMALL_PAIRS = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
                ("C", 3), ("C", 4), ("D", 4), ("F", 4), ("G", 2)]


@st.composite
def _full_points(draw):
    type_label, rank = draw(st.sampled_from(_SMALL_PAIRS))
    labels = draw(st.lists(st.sampled_from((0, Fraction(1, 2), 1, 2)),
                           min_size=rank, max_size=rank))
    assume(any(labels))
    assume(get_group(type_label, rank).orbit_size(
        chamber_point(get_rs(type_label, rank), labels)) <= DEFAULT_HULL_CAP)
    return type_label, rank, tuple(str(c) for c in labels)


@settings(derandomize=True, deadline=None, database=None, max_examples=25,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(_full_points())
def test_random_full_points_match_the_full_lattice(case):
    _compare_with_full_lattice(*case)
