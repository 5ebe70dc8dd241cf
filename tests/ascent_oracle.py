"""The Riemannian Newton ascent one seed at a time, as an oracle for the tests.

The package runs every (face, seed) lane of a run in one lockstep on stacked
matrices, each lane with its own u.  This oracle is the same rule as a plain
sequential loop: one u, one seed, one Newton try per iteration, 2-D numpy
calls.  Per lane, the lockstep kernel must reproduce it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from orbitope.errors import InvalidInputError
from orbitope.numeric import haar_starts, sorted_spectrum


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


def _hermitian(v: np.ndarray, b: np.ndarray) -> np.ndarray:
    """V* diag(b) V, made exactly Hermitian."""
    h = v.conj().T @ (b[:, None] * v)
    return 0.5 * (h + h.conj().T)


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real ** 2 + z.imag ** 2


def ascend_one(x0: np.ndarray, u: np.ndarray, seed: int = 0,
               max_iter: int = 10000) -> SeedAscent:
    """Maximize mu_u over the orbit of x0 by a damped, saddle-free Riemannian
    Newton ascent on the unitary frame V, p = V x0 V*.

    With x0 = i*diag(a), u = i*diag(b) and H = V* diag(b) V, mu_u(p) is
    sum_k a_k H_kk.  Each iteration diagonalizes H inside the eigenspaces of
    x0, checks ||[p, u]|| against 1e-10 ||x0|| ||u||, then tries V <- V cayley(Omega) with
    Omega_kj = -r_kj H_kj / (lambda + |r_kj (H_kk - H_jj)|), r = a_k - a_j.
    """
    n = x0.shape[0]
    if np.abs(u - np.diag(np.diag(u))).max() > 0 or np.abs(np.diag(u)).max() == 0:
        raise InvalidInputError("u must be a nonzero diagonal matrix")
    frames, starts = haar_starts(x0, [seed])
    v, start = frames[0], starts[0]
    a = np.diag(x0).imag
    b = np.diag(u).imag
    r = a[:, None] - a[None, :]
    r2 = r * r
    blocks = [idx for idx in (np.flatnonzero(a == c) for c in np.unique(a)) if len(idx) > 1]
    weights = b[:, None] * a
    lam = float(np.abs(b).max() * (a.max() - a.min()))
    size = np.abs(b).max() * np.abs(a).max()
    value = (_abs2(v) * weights).sum()
    prev_spec = sorted_spectrum(start)
    drift = 0.0
    grad_norm = 0.0
    converged = False
    eye = np.eye(n)
    iterations = 0
    while iterations < max_iter and lam < float("inf"):
        iterations += 1
        h = _hermitian(v, b)
        if blocks:
            v = v.copy()
            for idx in blocks:
                v[:, idx] = v[:, idx] @ np.linalg.eigh(h[idx][:, idx])[1]
            h = _hermitian(v, b)
        h2 = _abs2(h)
        grad_sq = (r2 * h2).sum()
        grad_norm = np.sqrt(grad_sq)
        if grad_norm < 1e-10 * size:
            converged = True
            break
        hd = np.diag(h).real
        curv = r * (hd[:, None] - hd[None, :])
        damp = lam + np.abs(curv)
        half = -0.5 * r * h / damp
        cand = v @ np.linalg.solve(eye - half, eye + half)
        cand_val = (_abs2(cand) * weights).sum()
        gain = cand_val - value
        terms = r2 * h2 / damp
        pred = terms.sum()
        model = pred - 0.5 * (terms * curv / damp).sum()
        scale = size + abs(value)
        ok = gain >= 1e-4 * pred
        if not ok and pred < 1e-12 * scale:
            cand_grad_sq = (r2 * _abs2(_hermitian(cand, b))).sum()
            ok = cand_grad_sq < grad_sq and gain >= -1e-11 * scale
        ratio = gain / model if model > 0 else 0.0
        if ok and ratio > 0.5:
            lam *= 0.3
        if not ok or ratio < 0.25:
            lam *= 4.0
        if ok:
            v, value = cand, cand_val
            spec = sorted_spectrum((v * (1j * a)) @ v.conj().T)
            drift = max(drift, np.abs(spec - prev_spec).max())
            prev_spec = spec
    return SeedAscent(point=(v * (1j * a)) @ v.conj().T, value=value, iterations=iterations,
                      grad_norm=grad_norm, converged=converged, spectral_drift=drift,
                      start_point=start)
