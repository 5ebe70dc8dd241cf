"""Floating-point cross-validation on su(n) adjoint orbits.

Only type A is realized numerically: a chamber point x becomes the diagonal
skew-Hermitian matrix i*diag(X), the orbit is swept by Haar-random special
unitaries, and the height function mu_u(p) = -Re tr(p u) is maximized by
Riemannian ascent with a Cayley-transform retraction (no eigendecomposition
per step, the orbit is preserved up to rounding).  The trace form equals the
Killing pairing divided by the known factor 2n, recorded once per run; exact
support values from the polytope module are rescaled by it for comparison.
numpy is imported inside the functions that use it, so importing the package
(and every run that never reaches the numeric check) does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InvalidInputError, TheoremViolationError
from .faces import FaceClassification, FaceDescriptor
from .polytope import support_set

_HERM_TOL = 1e-10


def su_from_cartan(v: Sequence) -> np.ndarray:
    """The diagonal skew-Hermitian matrix i*diag(v) for a realization vector."""
    import numpy as np
    a = np.array([float(Fraction(c)) if isinstance(c, str) else float(c) for c in v],
                 dtype=float)
    if abs(a.sum()) > 1e-9:
        raise InvalidInputError("Cartan vector is not traceless")
    return 1j * np.diag(a)


def mu_height(p: np.ndarray, u: np.ndarray) -> float:
    """mu_u(p) = <p, u> = -Re tr(p u), the trace-form height."""
    import numpy as np
    return float(-np.real(np.trace(p @ u)))


def sorted_spectrum(p: np.ndarray) -> np.ndarray:
    """Eigenvalues of -i*p (real for skew-Hermitian p), ascending."""
    import numpy as np
    return np.linalg.eigvalsh(-1j * p)


def random_special_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed element of SU(n) via QR with phase fixing."""
    import numpy as np
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    q = q * ph
    q[:, 0] /= np.linalg.det(q)
    return q


@dataclass(frozen=True)
class MatrixOrbitPoint:
    """A point g x0 g^{-1} of the matrix orbit, validated on construction."""

    n: int
    x0: np.ndarray
    g: np.ndarray
    point: np.ndarray


def matrix_orbit_point(x0: np.ndarray, g: np.ndarray) -> MatrixOrbitPoint:
    import numpy as np
    p = g @ x0 @ g.conj().T
    if np.abs(p + p.conj().T).max() > _HERM_TOL:
        raise InvalidInputError("orbit point is not skew-Hermitian")
    if abs(np.trace(p)) > _HERM_TOL:
        raise InvalidInputError("orbit point is not traceless")
    if np.abs(sorted_spectrum(p) - sorted_spectrum(x0)).max() > _HERM_TOL:
        raise InvalidInputError("orbit point changed the eigenvalue multiset")
    return MatrixOrbitPoint(n=x0.shape[0], x0=x0, g=g, point=p)


@dataclass
class AscentResult:
    point: np.ndarray
    value: float
    iterations: int
    grad_norm: float
    converged: bool
    #: largest per-step eigenvalue drift seen along the whole ascent
    spectral_drift: float
    start_point: np.ndarray


def ascend(x0: np.ndarray, u: np.ndarray, seed: int = 0,
           g0: np.ndarray | None = None, grad_tol: float = 1e-10,
           max_iter: int = 10000) -> AscentResult:
    """Maximize mu_u over the orbit of x0 by Cayley-retraction gradient ascent.

    The ascent generator at p is Z = [p, u]; criticality is ||[u, p]|| -> 0.
    The update p <- Q p Q* with Q = (I - tau/2 Z)^{-1}(I + tau/2 Z) stays on
    the orbit exactly up to rounding, and tau is chosen by backtracking.
    """
    import numpy as np
    n = x0.shape[0]
    if np.abs(u - np.diag(np.diag(u))).max() > 0 or np.abs(np.diag(u)).max() == 0:
        raise InvalidInputError("u must be a nonzero diagonal matrix")
    if g0 is None:
        g0 = random_special_unitary(n, np.random.default_rng(seed))
    p = matrix_orbit_point(x0, g0).point
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
    return AscentResult(point=p, value=value, iterations=iterations,
                        grad_norm=grad_norm, converged=converged,
                        spectral_drift=drift, start_point=start)


@dataclass
class HessianReport:
    """Sign data of D^2 mu_u at a diagonal critical point.

    Each tangent root plane (i, j) contributes a double eigenvalue
    -(b_i - b_j)/(a_i - a_j); pairs with a_i = a_j are not tangent and are
    excluded.  `counts` is (negative, zero, positive) with multiplicity.
    """

    blocks: tuple[tuple[int, int, float, float, float], ...]
    excluded: tuple[tuple[int, int], ...]
    counts: tuple[int, int, int]
    fd_max_error: float
    is_max: bool
    is_min: bool


def _cartan_vec(x) -> np.ndarray:
    import numpy as np
    arr = np.asarray(x)
    if arr.ndim == 2:
        return np.imag(np.diag(arr)).astype(float)
    return np.array([float(c) for c in x], dtype=float)


def hessian_signature(x_crit, u, fd_check: bool = True,
                      fd_step: float = 1e-3, zero_tol: float = 1e-12) -> HessianReport:
    """Per-root-plane Hessian signs at a diagonal critical point, plus a
    finite-difference cross-check of the block eigenvalues."""
    import numpy as np
    a = _cartan_vec(x_crit)
    b = _cartan_vec(u)
    n = len(a)
    blocks = []
    excluded = []
    neg = zero = pos = 0
    for i in range(n):
        for j in range(i + 1, n):
            r = a[i] - a[j]
            s = b[i] - b[j]
            if abs(r) <= zero_tol:
                excluded.append((i, j))
                continue
            eig = -s / r
            blocks.append((i, j, r, s, eig))
            if abs(eig) <= zero_tol:
                zero += 2
            elif eig < 0:
                neg += 2
            else:
                pos += 2
    fd_err = 0.0
    if fd_check:
        x_mat = 1j * np.diag(a)
        u_mat = 1j * np.diag(b)
        for i, j, r, s, eig in blocks:
            u_dir = np.zeros((n, n), dtype=complex)
            u_dir[i, j] = 1 / np.sqrt(2.0)
            u_dir[j, i] = -1 / np.sqrt(2.0)
            v_dir = np.zeros((n, n), dtype=complex)
            v_dir[i, j] = 1j / np.sqrt(2.0)
            v_dir[j, i] = 1j / np.sqrt(2.0)
            eye = np.eye(n, dtype=complex)
            for z in (v_dir / r, -u_dir / r):
                h = fd_step

                def val(t):
                    # Cayley curve: same velocity as the exponential, and the
                    # point is critical, so the second derivative matches.
                    g = np.linalg.solve(eye - 0.5 * t * z, eye + 0.5 * t * z)
                    return mu_height(g @ x_mat @ g.conj().T, u_mat)

                second = (val(h) - 2.0 * val(0.0) + val(-h)) / (h * h)
                fd_err = max(fd_err, abs(second - eig))
    return HessianReport(blocks=tuple(blocks), excluded=tuple(excluded),
                         counts=(neg, zero, pos), fd_max_error=fd_err,
                         is_max=pos == 0, is_min=neg == 0)


def verify_face_numeric(classification: FaceClassification, d: FaceDescriptor,
                        seeds: int = 20, seed_base: int = 0,
                        crit_tol: float = 1e-8, value_tol: float = 1e-8,
                        drift_tol: float = 1e-9, inside_tol: float = 1e-9,
                        round_tol: float = 1e-6, grad_tol: float = 1e-10,
                        max_iter: int = 10000, fd_tol: float = 1e-5) -> dict:
    """Cross-validate one face class on the su(n) realization.

    Runs multi-seed ascent for the face's exposing vector and checks: final
    criticality, the achieved value against the rescaled exact support value,
    spectral invariance along the ascent, momentum containment of all Cartan
    projections, the value ceiling, membership of the maximizers in sigma,
    and the Hessian block signs.  Any mismatch raises TheoremViolationError
    with a counterexample summary.
    """
    import numpy as np
    rs = classification.root_system
    if rs.type_label != "A":
        raise InvalidInputError("numeric verification is realized for type A only")
    if d.improper:
        raise InvalidInputError("the improper descriptor has no exposing vector")
    if seeds < 1:
        raise InvalidInputError("numeric verification needs at least one seed, got %d" % seeds)
    poly = classification.polytope
    n = rs.rank + 1
    factor = rs.killing_ratio
    x0 = su_from_cartan(classification.x.vector)
    u_exact = d.exposing_u
    u = su_from_cartan(u_exact)
    _, h_killing = support_set(poly, u_exact)
    h_trace = float(h_killing / factor)

    functionals = [(np.array([float(c) for c in f], dtype=float) / float(factor),
                    float(b / factor))
                   for f, b in poly.facet_functionals()]
    vertex_floats = np.array([[float(c) for c in v] for v in poly.vertices])
    u_floats = np.array([float(c) for c in u_exact])
    sigma_set = set(d.sigma.vertex_indices)

    def inside(vec: np.ndarray) -> bool:
        return all(fl @ vec <= b + inside_tol for fl, b in functionals)

    blocks: dict[Fraction, list[int]] = {}
    for i, c in enumerate(u_exact):
        blocks.setdefault(c, []).append(i)

    failures: list[str] = []
    results = []
    for k in range(seeds):
        res = ascend(x0, u, seed=seed_base + k, grad_tol=grad_tol, max_iter=max_iter)
        results.append(res)
        tag = "seed %d" % (seed_base + k)
        if not res.converged:
            failures.append("%s: no convergence (grad %.2e)" % (tag, res.grad_norm))
            continue
        if res.grad_norm > crit_tol:
            failures.append("%s: ||[u,p]|| = %.2e > %.0e" % (tag, res.grad_norm, crit_tol))
        if abs(res.value - h_trace) > value_tol:
            failures.append("%s: value gap %.2e > %.0e"
                            % (tag, abs(res.value - h_trace), value_tol))
        if res.spectral_drift > drift_tol:
            failures.append("%s: spectral drift %.2e per step" % (tag, res.spectral_drift))
        for q, name in ((res.start_point, "start"), (res.point, "maximizer")):
            shadow = np.imag(np.diag(q))
            if not inside(shadow):
                failures.append("%s: %s momentum shadow escapes P" % (tag, name))
            if mu_height(q, u) > h_trace + inside_tol:
                failures.append("%s: %s exceeds the support ceiling" % (tag, name))
        shadow = np.imag(np.diag(res.point))
        if abs(shadow @ u_floats - h_trace) > value_tol:
            failures.append("%s: maximizer shadow is not on the supporting hyperplane" % tag)
        # block-diagonalize within the eigenspaces of u and round to the orbit
        assembled = np.zeros(n)
        for idx in blocks.values():
            sub = res.point[np.ix_(idx, idx)]
            eigs = np.sort(np.linalg.eigvalsh(-1j * sub))[::-1]
            for pos, val in zip(idx, eigs):
                assembled[pos] = val
        dist = np.abs(vertex_floats - assembled).max(axis=1)
        nearest = int(dist.argmin())
        if dist[nearest] > round_tol:
            failures.append("%s: maximizer does not round to an orbit point (%.2e)"
                            % (tag, dist[nearest]))
        elif nearest not in sigma_set:
            failures.append("%s: maximizer rounds to vertex %d outside sigma" % (tag, nearest))

    hess = hessian_signature(poly.vertices[d.sigma.vertex_indices[0]], u_exact)
    if not hess.is_max:
        failures.append("Hessian on sigma vertex has positive blocks")
    if hess.fd_max_error > fd_tol:
        failures.append("Hessian finite-difference error %.2e > %.0e"
                        % (hess.fd_max_error, fd_tol))

    report = {
        "I": [rs.root_label(i) for i in d.I],
        "n": n,
        "trace_killing_factor": int(factor),
        "h_killing": str(h_killing),
        "h_trace": h_trace,
        "n_seeds": seeds,
        "n_converged": sum(1 for r in results if r.converged),
        "max_iterations": max(r.iterations for r in results),
        "max_grad_norm": max(r.grad_norm for r in results),
        "max_value_gap": max(abs(r.value - h_trace) for r in results),
        "max_step_drift": max(r.spectral_drift for r in results),
        "hessian_counts": list(hess.counts),
        "hessian_fd_error": hess.fd_max_error,
        "ok": not failures,
    }
    if failures:
        raise TheoremViolationError(
            "numeric verification failed for I=%s:\n  %s"
            % (d.I, "\n  ".join(failures)))
    return report
