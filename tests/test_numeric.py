"""Riemannian ascent on su(n) orbits and the Hessian block criterion."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import get_classification
from orbitope import (InvalidInputError, TheoremViolationError, ascend,
                      hessian_signature, matrix_orbit_point,
                      verify_face_numeric)
from orbitope.numeric import mu_height, random_special_unitary, su_from_cartan


def test_matrix_orbit_point_validation():
    x0 = su_from_cartan([1, 0, -1])
    g = random_special_unitary(3, np.random.default_rng(0))
    pt = matrix_orbit_point(x0, g)
    assert pt.n == 3
    assert abs(np.trace(pt.point)) < 1e-12
    with pytest.raises(InvalidInputError):
        matrix_orbit_point(x0, np.diag([2.0, 1.0, 1.0]).astype(complex))


def test_random_special_unitary_properties():
    for seed in range(5):
        q = random_special_unitary(4, np.random.default_rng(seed))
        assert np.abs(q @ q.conj().T - np.eye(4)).max() < 1e-12
        assert abs(np.linalg.det(q) - 1) < 1e-12


def test_ascend_with_u_equal_x0():
    """The orbit lies on a sphere, so the self-pairing is maximal."""
    x0 = su_from_cartan([1, 0, -1])
    res = ascend(x0, x0, seed=11)
    assert res.converged
    assert abs(res.value - mu_height(x0, x0)) < 1e-10
    assert np.abs(res.point - x0).max() < 1e-7


def test_ascend_regular_u_same_chamber_hits_x0():
    """20 random seeds all converge to x0 when u is regular dominant."""
    x0 = su_from_cartan([1, 0, -1])
    u = su_from_cartan([3, 1, -4])
    for seed in range(20):
        res = ascend(x0, u, seed=seed)
        assert res.converged and res.grad_norm < 1e-8
        assert np.abs(res.point - x0).max() < 1e-7
        assert res.spectral_drift < 1e-9


def test_ascend_p2_with_singular_u():
    """Example orbit of rank-one type: max of the height is the top eigenvalue
    pairing, attained on the projective subspace component."""
    x0 = su_from_cartan(["2/3", "-1/3", "-1/3"])
    u = su_from_cartan([1, 1, -2])
    for seed in range(8):
        res = ascend(x0, u, seed=seed)
        assert res.converged
        assert abs(res.value - 1.0) < 1e-9
        # maximizer commutes with u: the (1,1)-block never mixes with e3
        assert np.abs(res.point[2, :2]).max() < 1e-6


def test_ascend_rejects_bad_u():
    x0 = su_from_cartan([1, 0, -1])
    with pytest.raises(InvalidInputError):
        ascend(x0, np.zeros((3, 3), dtype=complex))
    off = np.zeros((3, 3), dtype=complex)
    off[0, 1] = 1j
    off[1, 0] = 1j
    with pytest.raises(InvalidInputError):
        ascend(x0, off)


def test_ascend_iteration_cap_reports_gradient():
    x0 = su_from_cartan([1, 0, -1])
    u = su_from_cartan([3, 1, -4])
    res = ascend(x0, u, seed=1, max_iter=2)
    assert not res.converged
    assert res.grad_norm > 0


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
    for d in cl.proper_descriptors:
        rep = verify_face_numeric(cl, d, seeds=8)
        assert rep["ok"]
        assert rep["n_converged"] == 8
        assert rep["max_value_gap"] <= 1e-8
        assert rep["max_grad_norm"] <= 1e-8
        assert rep["max_step_drift"] <= 1e-9
        assert rep["trace_killing_factor"] == 6


def test_verify_face_numeric_rejects_improper_and_non_a():
    cl = get_classification("A", 2, (1, 1))
    with pytest.raises(InvalidInputError):
        verify_face_numeric(cl, cl.top_descriptor)
    clb = get_classification("B", 2, (1, 1))
    with pytest.raises(InvalidInputError):
        verify_face_numeric(clb, clb.proper_descriptors[0])


def test_verify_face_numeric_detects_wrong_tolerance():
    """Impossible tolerance must surface as a theorem-violation diagnostic."""
    cl = get_classification("A", 2, (1, 1))
    with pytest.raises(TheoremViolationError):
        verify_face_numeric(cl, cl.proper_descriptors[0], seeds=2, crit_tol=1e-18,
                            grad_tol=1e-19)


def test_verify_face_numeric_rejects_zero_seeds():
    cl = get_classification("A", 2, (1, 1))
    with pytest.raises(InvalidInputError):
        verify_face_numeric(cl, cl.proper_descriptors[0], seeds=0)
