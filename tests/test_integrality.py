"""Integrality of the orbit weight and its descent to faces."""

from __future__ import annotations

from fractions import Fraction as Q

import pytest

from conftest import defining_sum, get_classification, get_point, get_rs
from orbitope import InvalidInputError, check_integral, induce_face_weight
from orbitope.cli import RunConfig, build_report
from orbitope.linalg import dot, vsub
from tests_util_det import det


def test_fundamental_weights_are_integral():
    for label, rank in [("A", 2), ("B", 3), ("G", 2)]:
        rs = get_rs(label, rank)
        for i in range(rank):
            coords = tuple(1 if j == i else 0 for j in range(rank))
            assert check_integral(rs, get_point(label, rank, coords)).is_integral


def test_half_weight_is_not_integral():
    rs = get_rs("A", 2)
    wd = check_integral(rs, get_point("A", 2, ("1/2", 0)))
    assert not wd.is_integral
    assert Q(1, 2) in {r.knapp for r in wd.pairings}


def test_pairing_table_on_simple_roots_recovers_coordinates():
    rs = get_rs("B", 3)
    x = get_point("B", 3, (2, 0, 3))
    wd = check_integral(rs, x)
    table = {r.root: r.knapp for r in wd.pairings}
    for i, a in enumerate(rs.simple_roots):
        assert table[a] == x.coords[i]


def test_half_display_column_is_half():
    report = build_report(RunConfig(command="integrality", type_label="G", rank=2,
                                    point=("1", "2")))["integrality"]
    tables = [report["pairings"]] + [face["pairings"] for face in report["faces"]]
    assert len(tables) > 1
    for table in tables:
        for row in table:
            assert Q(row["half"]) * 2 == Q(row["knapp"])


def test_grassmannian_point_is_integral():
    rs = get_rs("A", 4)
    wd = check_integral(rs, get_point("A", 4, (0, 5, 0, 0)))
    assert wd.is_integral
    assert {r.knapp for r in wd.pairings} == {Q(-5), Q(0), Q(5)}


def test_table_covers_the_full_root_set():
    rs = get_rs("A", 2)
    wd = check_integral(rs, get_point("A", 2, (1, 1)))
    assert len(wd.pairings) == 2 * rs.n_positive


def test_induced_weight_a2_edge():
    """x = omega_1, the edge face: x1 solves a 1x1 system, verdict integral."""
    rs = get_rs("A", 2)
    x = get_point("A", 2, (1, 0))
    cl = get_classification("A", 2, (1, 0))
    fw = induce_face_weight(rs, x, cl.descriptor_by_I((0,)))
    a1 = rs.simple_roots[0]
    assert fw.x1 == tuple(c / 2 for c in a1)
    assert fw.x1_prime == tuple(3 * c / 4 for c in a1)
    assert {r.knapp for r in fw.pairings} == {Q(6), Q(-6)}
    assert fw.is_integral


def test_induced_weight_improper_is_x_itself():
    rs = get_rs("A", 2)
    x = get_point("A", 2, (1, 0))
    cl = get_classification("A", 2, (1, 0))
    fw = induce_face_weight(rs, x, cl.top_descriptor)
    assert fw.x1_prime == x.vector == fw.x1


def test_induced_weight_rejects_vertex_faces():
    rs = get_rs("A", 2)
    cl = get_classification("A", 2, (1, 1))
    with pytest.raises(InvalidInputError):
        induce_face_weight(rs, get_point("A", 2, (1, 1)), cl.descriptor_by_I(()))


def test_defining_equation_holds():
    """<x1', y>_F = <x1, y> on the Cartan part of k_F, exactly, with both
    sides the literal sums: over Delta_I on the left, over Delta on the right."""
    for args in [("A", 4, (0, 5, 0, 0)), ("B", 3, (1, 0, 1)), ("G", 2, (1, 1)),
                 ("C", 3, ("1/2", 0, 3))]:
        rs = get_rs(args[0], args[1])
        x = get_point(*args)
        for d in get_classification(*args).descriptors:
            if not d.I:
                continue
            fw = induce_face_weight(rs, x, d)
            roots_i = [rs.positive_roots[k] for k in d.sub_roots_I]
            for i in d.I:
                y = rs.simple_roots[i]
                assert defining_sum(roots_i, fw.x1_prime, y) == \
                    defining_sum(rs.positive_roots, fw.x1, y), (args, d.I)
            # x - x1 is Killing-orthogonal to t /\ k_F
            for i in d.I:
                assert defining_sum(rs.positive_roots, vsub(x.vector, fw.x1),
                                    rs.simple_roots[i]) == 0
            # each audited value is <x1', a^vee>_F
            for row in fw.pairings:
                assert row.knapp == defining_sum(roots_i, fw.x1_prime, rs.coroot(row.root))


@pytest.mark.parametrize("args", [
    ("B", 3, (1, 0, 1)), ("C", 3, ("1/2", 0, 3)), ("C", 4, ("1/3", 0, 1, 2)),
    ("A", 5, (1, 0, 1, 0, 1)), ("D", 5, (0, 1, 0, 0, 1)), ("F", 4, (1, 0, 0, 1)),
    ("G", 2, ("3/2", 1))])
def test_face_row_is_killing_ratio_times_the_point_row(args):
    """Each face row is `killing_ratio` times the point's row on the same
    root: ratio_c * <x1', beta^vee> with x1' = x1 rescaled by killing_ratio /
    ratio_c, and x - x1 orthogonal to span(I).  Each point has a face whose
    I has several components or roots of two lengths.  ROADMAP item 11's mend
    (one integrality convention for the point and its faces) drops this
    factor, and this test changes with it."""
    rs = get_rs(args[0], args[1])
    x = get_point(*args)
    point_rows = {r.root: r.knapp for r in check_integral(rs, x).pairings}
    faces = [d for d in get_classification(*args).descriptors if d.I]
    assert any(len(rs.components(d.I)) > 1
               or len({rs.root_lengths[k] for k in d.sub_roots_I}) > 1 for d in faces)
    for d in faces:
        rows = induce_face_weight(rs, x, d).pairings
        assert len(rows) == 2 * len(d.sub_roots_I)
        for row in rows:
            assert row.knapp == rs.killing_ratio * point_rows[row.root], (args, d.I, row.root)


def test_sub_killing_gram_positive_definite():
    rs = get_rs("A", 4)
    cl = get_classification("A", 4, (0, 5, 0, 0))
    for d in cl.proper_descriptors:
        if not d.I:
            continue
        roots_i = [rs.positive_roots[k] for k in d.sub_roots_I]
        basis = [rs.simple_roots[i] for i in d.I]
        gram = [[defining_sum(roots_i, a, b) for b in basis] for a in basis]
        # ratio_c times the dot product on each factor: induce_face_weight's rescaling
        ratio = {i: rs.killing_ratio_of(c) for c in rs.components(d.I) for i in c}
        assert gram == [[ratio[i] * dot(a, b) for b in basis] for i, a in zip(d.I, basis)]
        # exact Cholesky-style positivity: all leading minors positive
        for k in range(1, len(basis) + 1):
            assert det([row[:k] for row in gram[:k]]) > 0


def test_descent_property_on_integral_grid():
    """Integral x: every proper face with nonempty I induces an integral weight."""
    pairs = 0
    for args in [("A", 2, (1, 1)), ("A", 2, (1, 0)), ("A", 3, (1, 1, 1)),
                 ("B", 2, (1, 1)), ("B", 3, (1, 0, 1)), ("G", 2, (1, 1)),
                 ("D", 4, (1, 1, 1, 1)), ("A", 4, (0, 5, 0, 0))]:
        rs = get_rs(args[0], args[1])
        x = get_point(*args)
        assert check_integral(rs, x).is_integral
        cl = get_classification(*args)
        for d in cl.proper_descriptors:
            if d.I:
                assert induce_face_weight(rs, x, d).is_integral, (args, d.I)
                pairs += 1
    assert pairs >= 10
