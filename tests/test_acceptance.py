"""Acceptance gate: one test per criterion, exact tolerances as stated.

Each test prints a single `[criterion N] PASS` line on success; a failing
assertion fails the corresponding pytest test.  Run with `pytest -s
tests/test_acceptance.py` to see the lines.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction as Q

from conftest import get_classification, get_point, get_rs
from orbitope import (build_poset, check_integral, hessian_signature,
                      induce_face_weight, parabolic_report, psi_of_polytope_face,
                      stratum_dim, support_set, verify_face_numeric)
from orbitope.cli import RunConfig, run
from orbitope.numeric import ascend, su_from_cartan
from polytope_oracle import fixed_vector_in_cone

#: criterion-3 grid; A1 has no full singular point (x = 0 is rejected), so it
#: contributes the regular point only
GRID = []
for _label, _rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                      ("G", 2), ("D", 4)]:
    _points = [tuple([1] * _rank)]
    if _rank >= 2:
        _points.append(tuple(1 if i == 0 else 0 for i in range(_rank)))
        _points.append(tuple(1 if i == 1 else 0 for i in range(_rank)))
    GRID.extend((_label, _rank, p) for p in _points)


def test_criterion_1_projective_space_face_count():
    """A_n with x = omega_1 has exactly n proper face classes in a chain."""
    for n in (2, 3, 4):
        start = time.perf_counter()
        coords = tuple([1] + [0] * (n - 1))
        cl = get_classification("A", n, coords)
        proper = cl.proper_descriptors
        assert len(proper) == n
        poset = build_poset(cl)
        idx = sorted((i for i, d in enumerate(poset.nodes) if d.proper),
                     key=lambda i: poset.nodes[i].dim_face)
        for a, b in zip(idx, idx[1:]):
            assert (a, b) in poset.order
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, "P^%d run took %.1fs" % (n, elapsed)
    print("\n[criterion 1] PASS - P^n face counts n=2,3,4 with chain posets")


def test_criterion_2_grassmannian_classes_and_levi_types():
    """A4 Grassmannian point: the 7 classes with their saturations and the
    Gr/P^k identifications of the extreme orbits."""
    cl = get_classification("A", 4, (0, 5, 0, 0))
    labels = {d.I for d in cl.descriptors}
    expected = {()} | {tuple(range(0, k)) for k in (2, 3, 4)} \
        | {tuple(range(1, k)) for k in (2, 3, 4)}
    assert labels == expected
    assert len(cl.descriptors) == 7
    assert len(cl.proper_descriptors) == 6  # I^1_4 = Pi is the flagged top
    assert cl.top_descriptor.I == (0, 1, 2, 3)
    # saturations J^i_k = I^i_k + {alpha_{k+2}, ..., alpha_n}, verbatim
    for k in (2, 3, 4):
        tail = tuple(range(k + 1, 4))
        d1 = cl.descriptor_by_I(tuple(range(0, k)))
        assert d1.J == tuple(sorted(d1.I + tail))
        d2 = cl.descriptor_by_I(tuple(range(1, k)))
        assert d2.J == tuple(sorted(d2.I + tail))
    # Levi data: I^1_k is A_k marked at the second node (a Grassmannian of
    # 2-planes), I^2_k is A_{k-1} marked at an end node (projective space)
    for k in (2, 3):
        rep1 = parabolic_report(cl, cl.descriptor_by_I(tuple(range(0, k))))
        assert rep1["ext_type"]["components"] == [{"type": "A%d" % k,
                                                   "marked_nodes": [2]}]
        rep2 = parabolic_report(cl, cl.descriptor_by_I(tuple(range(1, k))))
        assert rep2["ext_type"]["components"] == [{"type": "A%d" % (k - 1),
                                                   "marked_nodes": [1]}]
        assert rep2["ext_type"]["description"] == "P^%d" % (k - 1)
    assert parabolic_report(cl, cl.descriptor_by_I((0, 1, 2)))["levi_components"] == ["A3"]
    assert parabolic_report(cl, cl.descriptor_by_I((0, 1, 2)))["ext_type"]["description"] \
        == "Gr(2,4)"
    rep24 = parabolic_report(cl, cl.descriptor_by_I((1, 2, 3)))
    assert rep24["ext_type"]["description"] == "P^3"
    print("\n[criterion 2] PASS - Grassmannian G(2,5): 7 classes, saturations "
          "and Levi types verbatim")


def test_criterion_3_bijection_suite():
    """Every grid run verifies phi/psi bijectivity, each under 60 s."""
    for label, rank, coords in GRID:
        start = time.perf_counter()
        cl = get_classification(label, rank, coords)
        assert cl.bijection_verified, (label, rank, coords)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, "%s%d %s took %.1fs" % (label, rank, coords, elapsed)
    print("\n[criterion 3] PASS - bijection verified on %d runs" % len(GRID))


def test_criterion_4_exposedness_suite():
    """support_set(P, exposing_u) equals sigma exactly, for every class."""
    checked = 0
    for label, rank, coords in GRID:
        cl = get_classification(label, rank, coords)
        for d in cl.proper_descriptors:
            face, _ = support_set(cl.polytope, d.exposing_u)
            assert face.vertex_indices == d.sigma.vertex_indices
            checked += 1
    print("\n[criterion 4] PASS - %d exposing vectors verified exactly" % checked)


def test_criterion_5_stratification():
    """Strict dimension monotonicity along the order; P^n closed form."""
    for label, rank, coords in GRID:
        cl = get_classification(label, rank, coords)
        poset = build_poset(cl)
        for i, j in poset.order:
            if i in poset.stratum_dims and j in poset.stratum_dims:
                assert poset.stratum_dims[i] < poset.stratum_dims[j]
            assert poset.nodes[i].dim_face < poset.nodes[j].dim_face
    for n in (2, 3, 4):
        rs = get_rs("A", n)
        cl = get_classification("A", n, tuple([1] + [0] * (n - 1)))
        for d in cl.proper_descriptors:
            k = len(d.I) + 1
            assert stratum_dim(rs, d).stratum == 2 * k * (n + 1) - k * k - 1
    print("\n[criterion 5] PASS - stratification monotone; P^n dims "
          "2k(n+1)-k^2-1 reproduced")


def test_criterion_6_integrality_descent():
    """Integral x: every proper face with I nonempty induces an integral
    weight (exact, zero tolerance); at least 10 pairs exercised."""
    pairs = 0
    for label, rank, coords in GRID:
        rs = get_rs(label, rank)
        x = get_point(label, rank, coords)
        if not check_integral(rs, x).is_integral:
            continue
        cl = get_classification(label, rank, coords)
        for d in cl.proper_descriptors:
            if d.I:
                fw = induce_face_weight(rs, x, d)
                assert fw.is_integral, (label, rank, coords, d.I)
                assert all(r.knapp.denominator == 1 for r in fw.pairings)
                pairs += 1
    assert pairs >= 10
    print("\n[criterion 6] PASS - integrality descent on %d (x, face) pairs" % pairs)


def test_criterion_7_normal_cone_convexity():
    """100 random conic combinations of two exposing vectors per face class
    expose the same face, exactly."""
    rng = random.Random(2024)
    combos = 0
    for label, rank, coords in GRID:
        cl = get_classification(label, rank, coords)
        for d in cl.proper_descriptors:
            u1 = d.exposing_u
            u2 = fixed_vector_in_cone(cl.polytope, d.sigma)
            for _ in range(100):
                l1 = Q(rng.randint(0, 12), rng.randint(1, 4))
                l2 = Q(rng.randint(0, 12), rng.randint(1, 4))
                if l1 == 0 and l2 == 0:
                    l1 = Q(1)
                u = tuple(l1 * a + l2 * b for a, b in zip(u1, u2))
                face, _ = support_set(cl.polytope, u)
                assert face.vertex_indices == d.sigma.vertex_indices
                combos += 1
    print("\n[criterion 7] PASS - %d conic combinations re-exposed their faces" % combos)


def test_criterion_8_numeric_cross_validation():
    """su(3), su(4), su(5): multi-seed ascent against exact support values,
    criticality, Hessian signs, and the three-component flag example."""
    start = time.perf_counter()
    orbits = [("A", 2, (1, 1)), ("A", 3, (1, 1, 1)), ("A", 4, (0, 5, 0, 0))]
    for label, rank, coords in orbits:
        cl = get_classification(label, rank, coords)
        for rep in verify_face_numeric(cl, cl.proper_descriptors[:5], seeds=20):
            assert rep["ok"]
            assert rep["n_converged"] == 20
            assert rep["max_value_gap"] <= 1e-8
            assert rep["max_grad_norm"] <= 1e-8
            assert rep["max_step_drift"] <= 1e-9
            assert rep["hessian_fd_error"] <= 1e-5

    # the three-component example: u = i diag(1,1,-2) on the su(3) flag orbit
    cl = get_classification("A", 2, (1, 1))
    u_vec = (Q(1), Q(1), Q(-2))
    face, h = support_set(cl.polytope, u_vec)
    d_max = psi_of_polytope_face(cl, face)
    assert d_max.I == (0,)  # the face class with alpha_1(u) = 0
    h_trace = float(h)
    assert h_trace == 3.0
    # middle critical component: saddle by the block criterion, and its
    # Cartan shadow is not a face of the Kostant polytope
    mid = hessian_signature([1, -1, 0], [1, 1, -2])
    assert not mid.is_max and not mid.is_min
    mid_points = {(Q(1), Q(-1), Q(0)), (Q(-1), Q(1), Q(0))}
    mid_idx = tuple(sorted(cl.polytope.vertices.index(v) for v in mid_points))
    assert cl.polytope.find_face(mid_idx) is None
    # ascent only ever reports the maximum component's value
    x0 = su_from_cartan([1, 0, -1])
    u_mat = su_from_cartan([1, 1, -2])
    res = ascend(x0, u_mat, seeds=range(20))
    for k in range(20):
        assert res.converged_flags[k]
        assert abs(res.values[k] - 3.0) <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, "numeric suite took %.1fs" % elapsed
    print("\n[criterion 8] PASS - numeric cross-validation in %.1fs" % elapsed)


def test_criterion_9_determinism():
    """verify-all on A3 regular, run twice: byte-identical JSON."""
    cfg = RunConfig(command="verify-all", type_label="A", rank=3,
                    point=("1", "1", "1"), fmt="json")
    code1, text1 = run(cfg)
    code2, text2 = run(cfg)
    assert code1 == code2 == 0
    assert text1 == text2
    assert json.dumps(json.loads(text1), indent=2) + "\n" == text1
    print("\n[criterion 9] PASS - verify-all A3 regular is byte-identical")
