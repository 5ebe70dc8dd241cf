"""Riemannian ascent on su(n) orbits and the Hessian block criterion."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

import orbitope.numeric
from ascent_oracle import ascend_one
from conftest import get_classification, get_rs
from orbitope import (InvalidInputError, TheoremViolationError, ascend,
                      build_weyl_group, chamber_point, classify_faces,
                      hessian_signature, matrix_orbit_point, support_set,
                      verify_face_numeric)
from orbitope.linalg import dot
from orbitope.numeric import random_special_unitaries, su_from_cartan, vertex_floats


def test_matrix_orbit_point_validation():
    x0 = su_from_cartan([1, 0, -1])
    g = random_special_unitaries(3, [0])[0]
    pt = matrix_orbit_point(x0, g)
    assert pt.shape == (3, 3)
    assert abs(np.trace(pt)) < 1e-12
    with pytest.raises(InvalidInputError):
        matrix_orbit_point(x0, np.diag([2.0, 1.0, 1.0]).astype(complex))


def test_random_special_unitary_properties():
    """One element of SU(4) per seed, the same whether drawn alone or in a
    stack, and different for different seeds."""
    qs = random_special_unitaries(4, range(5))
    for seed, q in enumerate(qs):
        assert np.abs(q @ q.conj().T - np.eye(4)).max() < 1e-12
        assert abs(np.linalg.det(q) - 1) < 1e-12
        assert np.array_equal(q, random_special_unitaries(4, [seed])[0])
    assert np.abs(qs[0] - qs[1]).max() > 0.1


def test_ascend_with_u_equal_x0():
    """The orbit lies on a sphere, so the self-pairing is maximal."""
    x0 = su_from_cartan([1, 0, -1])
    res = ascend(x0, x0, seeds=[11])
    assert res.converged
    assert abs(res.values[0] + np.real(np.trace(x0 @ x0))) < 1e-10
    assert np.abs(res.points[0] - x0).max() < 1e-7


def test_ascend_regular_u_same_chamber_hits_x0():
    """20 random seeds all converge to x0 when u is regular dominant."""
    x0 = su_from_cartan([1, 0, -1])
    u = su_from_cartan([3, 1, -4])
    res = ascend(x0, u, seeds=range(20))
    for k in range(20):
        assert res.converged_flags[k] and res.grad_norms[k] < 1e-8
        assert np.abs(res.points[k] - x0).max() < 1e-7
        assert res.spectral_drifts[k] < 1e-9


def test_ascend_p2_with_singular_u():
    """Example orbit of rank-one type: max of the height is the top eigenvalue
    pairing, attained on the projective subspace component."""
    x0 = su_from_cartan(["2/3", "-1/3", "-1/3"])
    u = su_from_cartan([1, 1, -2])
    res = ascend(x0, u, seeds=range(8))
    for k in range(8):
        assert res.converged_flags[k]
        assert abs(res.values[k] - 1.0) < 1e-9
        # maximizer commutes with u: the (1,1)-block never mixes with e3
        assert np.abs(res.points[k][2, :2]).max() < 1e-6


def test_ascend_rejects_bad_u():
    x0 = su_from_cartan([1, 0, -1])
    with pytest.raises(InvalidInputError):
        ascend(x0, np.zeros((3, 3), dtype=complex), seeds=[0])
    off = np.zeros((3, 3), dtype=complex)
    off[0, 1] = 1j
    off[1, 0] = 1j
    with pytest.raises(InvalidInputError):
        ascend(x0, off, seeds=[0])


def test_ascend_rejects_negative_and_missing_seeds():
    x0 = su_from_cartan([1, 0, -1])
    u = su_from_cartan([3, 1, -4])
    with pytest.raises(InvalidInputError):
        ascend(x0, u, seeds=[0, -1])
    with pytest.raises(InvalidInputError):
        ascend(x0, u, seeds=[])
    cl = get_classification("A", 2, (1, 1))
    with pytest.raises(InvalidInputError):
        verify_face_numeric(cl, cl.proper_descriptors[:1], seeds=2, seed_base=-1)


def test_ascend_totals_are_python_scalars():
    """The summed iterations and the all-converged flag are plain int and bool."""
    x0 = su_from_cartan([1, 0, -1])
    res = ascend(x0, su_from_cartan([3, 1, -4]), seeds=range(3))
    assert type(res.iterations) is int and type(res.converged) is bool
    assert res.iterations == sum(int(c) for c in res.iteration_counts)
    assert res.converged == all(res.converged_flags)


_BENCHMARK_POINTS = ((1, 1, 1), (1, 0, 1), (0, 1, 1, 0))


def _benchmark_faces(one_call):
    """(x0, u) of every face the benchmark's verify-numeric cases check: one
    2-D u per face, or each point's five u stacked as one run passes them."""
    out = []
    for coords in _BENCHMARK_POINTS:
        cl = get_classification("A", len(coords), coords)
        x0 = su_from_cartan(cl.x.vector)
        us = [su_from_cartan(d.exposing_u) for d in cl.proper_descriptors[:5]]
        out.extend([(x0, np.array(us))] if one_call else [(x0, u) for u in us])
    return out


def _faces_of(label, rank, coords):
    """x0 of a point and the u of its first five proper faces, stacked."""
    cl = get_classification(label, rank, coords)
    us = [su_from_cartan(d.exposing_u) for d in cl.proper_descriptors[:5]]
    return [(su_from_cartan(cl.x.vector), np.array(us))]


def _first_weight_a6(faces):
    """x0 of A6 `1,0,...,0` and the u of its first `faces` proper faces
    (all of them for None), stacked."""
    rs = get_rs("A", 6)
    cl = classify_faces(rs, build_weyl_group(rs, cap=6000), chamber_point(rs, [1] + [0] * 5))
    us = [su_from_cartan(d.exposing_u) for d in cl.proper_descriptors[:faces]]
    return su_from_cartan(cl.x.vector), np.array(us)


_REGULAR = ([1, 0, -1], [3, 1, -4])
_FOUR = ([3, 1, -1, -3], [1, 0, 0, -1])
#: name -> ((x, u or a list of u) pairs, or a function giving (x0, u) pairs;
#: seeds; the oracle's arguments)
_ORACLE_CASES = {
    "regular-u": ([_REGULAR], range(20), {}),
    "singular-u-P2": ([(["2/3", "-1/3", "-1/3"], [1, 1, -2])], range(20), {}),
    "u-equals-x0": ([([1, 0, -1], [1, 0, -1])], range(20), {}),
    "unordered-seeds": ([_REGULAR], (5, 2, 17, 0), {}),
    "benchmark-faces": (lambda: _benchmark_faces(False), range(20), {}),
    "benchmark-points-one-call": (lambda: _benchmark_faces(True), range(20), {}),
    "a6-first-weight": (lambda: [_first_weight_a6(1)], range(20), {}),
    "a6-first-weight-faces": (lambda: [_first_weight_a6(None)], range(20), {}),
    # n = 9: numpy sums 8 or more terms pairwise, not in order
    "a8-two-u": ([([4, 3, 2, 1, 0, -1, -2, -3, -4],
                   [[1, 1, 1, 1, 1, 1, 1, 1, -8], [2, 2, 1, 0, 0, 0, -1, -2, -2]])],
                 range(4), {}),
    "max-iter-2": ([_REGULAR, _FOUR], range(20), {"max_iter": 2}),
    "max-iter-2-two-u": ([(_FOUR[0], [_FOUR[1], [2, 1, 0, -3]])], range(20), {"max_iter": 2}),
    "max-iter-7": ([_REGULAR, _FOUR], range(20), {"max_iter": 7}),
    # x0 with a repeated eigenvalue: the frame turns inside its eigenspace
    "singular-x0-a3": (lambda: _faces_of("A", 3, (1, 0, 1)), range(20), {}),
    # eigenvalue gaps 1 and 1000
    "a2-1-1000": (lambda: _faces_of("A", 2, (1, 1000)), range(20), {}),
}


#: the module constant the lockstep kernel reads for each oracle argument
_ORACLE_CONSTANTS = {"max_iter": "_MAX_ITER"}


def _realize(x, u):
    """x0 and u on su(n); a list of u vectors becomes an (F, n, n) stack."""
    if isinstance(u[0], list):
        return su_from_cartan(x), np.array([su_from_cartan(v) for v in u])
    return su_from_cartan(x), su_from_cartan(u)


@pytest.mark.parametrize("name", list(_ORACLE_CASES))
def test_lockstep_ascent_matches_the_sequential_oracle(name, monkeypatch):
    """Each (u, seed) lane of the lockstep kernel follows, bit for bit, the
    ascent the sequential loop runs from that seed for that u alone."""
    pairs, seeds, kw = _ORACLE_CASES[name]
    for key, value in kw.items():
        monkeypatch.setattr(orbitope.numeric, _ORACLE_CONSTANTS[key], value)
    pairs = pairs() if callable(pairs) else [_realize(x, u) for x, u in pairs]
    for x0, u in pairs:
        res = ascend(x0, u, seeds=seeds)
        us = u[None] if u.ndim == 2 else u
        assert res.seeds == tuple(seeds)
        assert len(res.points) == len(us) * len(res.seeds)
        for f, uf in enumerate(us):
            for k, seed in enumerate(seeds):
                lane = f * len(res.seeds) + k
                one = ascend_one(x0, uf, seed=seed, **kw)
                assert np.array_equal(res.points[lane], one.point)
                assert np.array_equal(res.start_points[lane], one.start_point)
                assert res.values[lane] == one.value
                assert res.grad_norms[lane] == one.grad_norm
                assert res.spectral_drifts[lane] == one.spectral_drift
                assert res.iteration_counts[lane] == one.iterations
                assert res.converged_flags[lane] == one.converged
                if "max_iter" in kw:
                    assert one.iterations == kw["max_iter"] and not one.converged


def test_ascend_iteration_cap_reports_gradient(monkeypatch):
    monkeypatch.setattr(orbitope.numeric, "_MAX_ITER", 2)
    x0 = su_from_cartan([1, 0, -1])
    u = su_from_cartan([3, 1, -4])
    res = ascend(x0, u, seeds=[1])
    assert not res.converged
    assert res.grad_norms[0] > 0


def test_hessian_same_chamber_is_max():
    h = hessian_signature([1, 0, -1], [2, 1, -3])
    assert h.is_max and h.counts[2] == 0
    assert h.fd_max_error < 1e-5


def test_hessian_sign_flip_is_min():
    h = hessian_signature([1, 0, -1], [-1, 0, 1])
    assert h.is_min and h.counts[0] == 0


def test_hessian_flag_example_middle_component_is_saddle():
    """u = i diag(1,1,-2) on the full flag orbit: the middle critical
    component has mixed block signs, so its hull is not a face."""
    u = [1, 1, -2]
    top = hessian_signature([1, 0, -1], u)
    mid = hessian_signature([1, -1, 0], u)
    bot = hessian_signature([-1, 0, 1], u)
    assert top.is_max and bot.is_min
    assert not mid.is_max and not mid.is_min
    assert mid.counts[0] > 0 and mid.counts[2] > 0


def test_hessian_excludes_non_tangent_root_planes():
    h = hessian_signature([1, 1, -2], [1, 0, -1])
    assert (0, 1) in h.excluded


def test_hessian_block_values_match_ratio():
    h = hessian_signature([2, 1, -3], [1, 1, -2])
    values = {(i, j): eig for i, j, _, _, eig in h.blocks}
    assert values[(0, 1)] == 0
    assert values[(0, 2)] == pytest.approx(-3 / 5)
    assert values[(1, 2)] == pytest.approx(-3 / 4)


def test_verify_face_numeric_a2():
    cl = get_classification("A", 2, (1, 1))
    reports = verify_face_numeric(cl, cl.proper_descriptors, seeds=8)
    assert len(reports) == len(cl.proper_descriptors)
    for d, rep in zip(cl.proper_descriptors, reports):
        assert rep["I"] == [cl.root_system.root_label(i) for i in d.I]
        assert rep["ok"]
        assert rep["n_converged"] == 8
        assert rep["max_value_gap"] <= 1e-8
        assert rep["max_grad_norm"] <= 1e-8
        assert rep["max_step_drift"] <= 1e-9
        assert rep["trace_killing_factor"] == 6


def test_verify_face_numeric_rejects_improper_and_non_a():
    cl = get_classification("A", 2, (1, 1))
    with pytest.raises(InvalidInputError):
        verify_face_numeric(cl, [cl.top_descriptor])
    clb = get_classification("B", 2, (1, 1))
    with pytest.raises(InvalidInputError):
        verify_face_numeric(clb, clb.proper_descriptors[:1])


def test_verify_face_numeric_detects_wrong_tolerance(monkeypatch):
    """Impossible tolerance must surface as a theorem-violation diagnostic."""
    monkeypatch.setattr(orbitope.numeric, "_GRAD_TOL", 0.0)
    cl = get_classification("A", 2, (1, 1))
    with pytest.raises(TheoremViolationError):
        verify_face_numeric(cl, cl.proper_descriptors[:1], seeds=2)


def test_verify_face_numeric_rejects_zero_seeds():
    cl = get_classification("A", 2, (1, 1))
    with pytest.raises(InvalidInputError):
        verify_face_numeric(cl, cl.proper_descriptors[:1], seeds=0)


def test_verify_face_numeric_detects_an_escaping_start(monkeypatch):
    """Start points off the orbit, at 1.05 x, have shadows outside P."""
    monkeypatch.setattr(orbitope.numeric, "haar_starts",
                        lambda x0, seeds: (np.array([np.eye(len(x0))] * len(seeds)),
                                           np.array([1.05 * x0] * len(seeds))))
    cl = get_classification("A", 2, (1, 1))
    with pytest.raises(TheoremViolationError, match="start momentum shadow escapes P"):
        verify_face_numeric(cl, cl.proper_descriptors[:1], seeds=2)


def test_verify_face_numeric_validates_every_face_before_any_ascent(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("ascend was called")

    monkeypatch.setattr(orbitope.numeric, "ascend", unreachable)
    cl = get_classification("A", 2, (1, 1))
    with pytest.raises(InvalidInputError, match="improper descriptor"):
        verify_face_numeric(cl, [cl.proper_descriptors[0], cl.top_descriptor], seeds=2)


@pytest.mark.parametrize("constant, value, message", [
    # the first face (regular u) passes, the second (singular u) fails
    ("_GRAD_TOL", 1e-19, "numeric verification failed for I=(0,):\n"
                         "  seed 0: no convergence (grad 2.30e-16)\n"
                         "  seed 1: no convergence (grad 7.11e-17)"),
    # every face fails: the first is named
    ("_DRIFT_TOL", 1.3e-15, "numeric verification failed for I=():\n"
                            "  seed 0: spectral drift 1.55e-15 per step\n"
                            "  seed 1: spectral drift 1.33e-15 per step"),
])
def test_a_two_face_failure_names_the_first_failing_face(constant, value, message,
                                                         monkeypatch):
    """The faces share one ascent but are checked in order, so a failure
    reads as it did when each face ascended and was checked on its own."""
    monkeypatch.setattr(orbitope.numeric, constant, value)
    cl = get_classification("A", 2, (2, 1))
    with pytest.raises(TheoremViolationError) as err:
        verify_face_numeric(cl, cl.proper_descriptors[:2], seeds=2)
    assert str(err.value) == message


#: the `numeric` workload's 15 faces and all 24 faces of A5 `1,0,1,0,1`
_ROBUST_FACES = (((1, 1, 1), 5), ((1, 0, 1), 5), ((0, 1, 1, 0), 5), ((1, 0, 1, 0, 1), None))


def test_every_lane_converges_within_40_iterations():
    """With 200 seeds per face, every lane converges (verify_face_numeric
    raises otherwise), each in at most 40 Newton iterations."""
    for coords, faces in _ROBUST_FACES:
        cl = get_classification("A", len(coords), coords)
        for rep in verify_face_numeric(cl, cl.proper_descriptors[:faces], seeds=200):
            assert rep["n_converged"] == 200
            assert rep["max_iterations"] <= 40, (coords, rep["I"], rep["max_iterations"])


#: the type-A cases whose exact data the float check reads
_EXACT_CASES = ((1, 1, 1), (1, 0, 1), (0, 1, 1, 0), (1, 0, 1, 0, 1))


def test_support_value_is_u_dot_x():
    """x lies in sigma, which u exposes, so u . x is the support value that
    the scan over the whole orbit finds, for every proper descriptor; the
    report's Killing value is that value times the factor."""
    for coords in _EXACT_CASES:
        cl = get_classification("A", len(coords), coords)
        for d in cl.proper_descriptors:
            assert dot(d.exposing_u, cl.x.vector) == support_set(cl.polytope, d.exposing_u)[1]
    cl = get_classification("A", 3, (1, 1, 1))
    for d, rep in zip(cl.proper_descriptors, verify_face_numeric(cl, cl.proper_descriptors,
                                                                 seeds=2)):
        h = support_set(cl.polytope, d.exposing_u)[1]
        assert rep["h_killing"] == str(cl.root_system.killing_ratio * h)
        assert rep["h_trace"] == float(h)


@pytest.mark.parametrize("coords", _EXACT_CASES + (
    # integer rows past 2^53, where an int64 division rounds twice and misses
    # a bit, and past 2^63
    (Fraction(218279948466286009, 200090642723222005), 1),
    (Fraction(10 ** 20 + 1, 10 ** 20), 1)))
def test_vertex_floats_equal_the_fraction_floats(coords):
    """The float table from the integer rows has the bits of float(Fraction)
    per coordinate."""
    poly = get_classification("A", len(coords), coords).polytope
    table = np.array([[float(c) for c in v] for v in poly.vertices])
    assert np.array_equal(vertex_floats(poly), table)
