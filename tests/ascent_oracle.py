"""The Cayley-retraction ascent one seed at a time, as an oracle for the tests.

The package runs every (face, seed) lane of a run in one lockstep on stacked
matrices, each lane with its own u.  This oracle is the sequential loop it
replaced, kept verbatim: one u, one seed, one backtracking loop of up to 60
tries per iteration, plain 2-D numpy calls.  Per lane, the lockstep kernel
must reproduce it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from orbitope.errors import InvalidInputError
from orbitope.numeric import (matrix_orbit_point, mu_height,
                              random_special_unitary, sorted_spectrum)


@dataclass
class SeedAscent:
    point: np.ndarray
    value: float
    iterations: int
    grad_norm: float
    converged: bool
    #: largest per-step eigenvalue drift seen along the whole ascent
    spectral_drift: float
    start_point: np.ndarray


def ascend_one(x0: np.ndarray, u: np.ndarray, seed: int = 0,
               g0: np.ndarray | None = None, grad_tol: float = 1e-10,
               max_iter: int = 10000) -> SeedAscent:
    """Maximize mu_u over the orbit of x0 by Cayley-retraction gradient ascent.

    The ascent generator at p is Z = [p, u]; criticality is ||[u, p]|| -> 0.
    The update p <- Q p Q* with Q = (I - tau/2 Z)^{-1}(I + tau/2 Z) stays on
    the orbit exactly up to rounding, and tau is chosen by backtracking.
    """
    n = x0.shape[0]
    if np.abs(u - np.diag(np.diag(u))).max() > 0 or np.abs(np.diag(u)).max() == 0:
        raise InvalidInputError("u must be a nonzero diagonal matrix")
    if g0 is None:
        g0 = random_special_unitary(n, np.random.default_rng(seed))
    p = matrix_orbit_point(x0, g0)
    start = p.copy()
    eye = np.eye(n, dtype=complex)
    tau = 1.0 / (np.linalg.norm(u) + 1.0)
    value = mu_height(p, u)
    prev_spec = sorted_spectrum(p)
    drift = 0.0
    iterations = 0
    grad_norm = float(np.linalg.norm(p @ u - u @ p))
    converged = grad_norm < grad_tol
    # Once value improvements shrink below float resolution, Armijo on the
    # height stalls around 1e-8 criticality; the endgame instead accepts
    # steps that strictly shrink the gradient norm (the same vector field).
    endgame = False
    for iterations in range(1, max_iter + 1):
        z = p @ u - u @ p
        grad_norm = float(np.linalg.norm(z))
        if grad_norm < grad_tol:
            converged = True
            break
        accepted = False
        first_try = True
        for _ in range(60):
            q = np.linalg.solve(eye - 0.5 * tau * z, eye + 0.5 * tau * z)
            cand = q @ p @ q.conj().T
            cand_val = mu_height(cand, u)
            if not endgame:
                if cand_val >= value + 0.25 * tau * grad_norm ** 2 and cand_val > value:
                    accepted = True
                    break
            else:
                cand_grad = float(np.linalg.norm(cand @ u - u @ cand))
                if cand_grad < grad_norm and cand_val >= value - 1e-11 * (1.0 + abs(value)):
                    accepted = True
                    break
            tau *= 0.5
            first_try = False
        if not accepted:
            if endgame:
                break
            endgame = True
            tau = max(tau, 1.0 / (np.linalg.norm(u) + 1.0))
            continue
        p, value = cand, cand_val
        spec = sorted_spectrum(p)
        drift = max(drift, float(np.abs(spec - prev_spec).max()))
        prev_spec = spec
        if first_try:
            tau = min(tau * 1.5, 1e3)
    return SeedAscent(point=p, value=value, iterations=iterations,
                      grad_norm=grad_norm, converged=converged,
                      spectral_drift=drift, start_point=start)
