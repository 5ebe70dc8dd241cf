"""Floating-point cross-validation on su(n) adjoint orbits.

Only type A is realized numerically: a chamber point x becomes the diagonal
skew-Hermitian matrix i*diag(X), the orbit is swept by Haar-random special
unitaries, and the height function mu_u(p) = -Re tr(p u) is maximized by
Riemannian ascent with a Cayley-transform retraction (no eigendecomposition
per step, the orbit is preserved up to rounding; Wen and Yin, "A feasible
method for optimization with orthogonality constraints", Math. Program. 142,
2013).  Every (face, seed) lane of a run ascends in one lockstep on stacked
(faces * seeds, n, n) arrays, one backtracking try per live lane per step;
each lane keeps its own u and every scalar of the search (step size,
endgame, tries, iterations).  Stacked matmul, solve and eigvalsh give the
bits of their 2-D calls, and a product with the diagonal u is taken on the
entries it scales, which gives the bits of the matmul, so each lane's result
equals that of an ascent run from its seed for its face alone (the tests
keep the sequential loop as an oracle).  On su(n) the coordinate dot
product is the trace form -tr(XY) on diagonal X and Y, so the polytope's
facets and support values are compared as they are; the Killing form is
`killing_ratio` = 2n times it (the argument is in `roots`), a factor
recorded once per run.
A momentum shadow y is tested on the facets through x alone: every facet is
a W-image of one, and W = S_n permutes the coordinates, so the largest value
of a W-image of a normal m at y is sort(m) . sort(y), by the rearrangement
inequality (Hardy, Littlewood and Polya, Inequalities, 10.2).
A run converts the vertices and the facets through x to floats once, and
tests the shadows of all its lanes against them in one call.  The tolerances
and the iteration cap are fixed module constants, not settings or arguments.
numpy is imported inside the functions that use it, so importing the package
(and every run that never reaches the numeric check) does not load it.

Every lane of a run starts from one seeded Haar draw (`haar_starts`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import InvalidInputError, TheoremViolationError
from .faces import FaceClassification, FaceDescriptor
from .polytope import KostantPolytope, support_set

_HERM_TOL = 1e-10
#: a seed has converged once ||[p, u]|| falls below this.  Convergence is
#: the criticality check: a converged seed is critical to 1e-10, which
#: already meets a criticality bound of 1e-8, so no separate bound is tested.
_GRAD_TOL = 1e-10
#: largest gap between a maximizer's height and the exact support value, and
#: between its momentum shadow and the supporting hyperplane
_VALUE_TOL = 1e-8
#: largest finite-difference error of the Hessian block eigenvalues
_FD_TOL = 1e-5
#: backtracking tries per iteration before the endgame, or the end
_MAX_TRIES = 60
#: ascent iterations per seed before it counts as not converged
_MAX_ITER = 10000
#: largest spectral drift per ascent step a numeric check accepts
_DRIFT_TOL = 1e-9
#: slack of the facet and support-ceiling tests on float points
_INSIDE_TOL = 1e-9
#: largest distance from a maximizer to the orbit point it rounds to
_ROUND_TOL = 1e-6
#: step of the finite-difference Hessian check
_FD_STEP = 1e-3
#: differences and eigenvalues at most this are zero in the Hessian signs
_ZERO_TOL = 1e-12


def su_from_cartan(v: Sequence) -> np.ndarray:
    """The diagonal skew-Hermitian matrix i*diag(v) for a realization vector."""
    import numpy as np
    try:
        a = np.array([float(Fraction(c)) if isinstance(c, str) else float(c) for c in v],
                     dtype=float)
    except OverflowError:
        raise InvalidInputError("Cartan vector has an entry beyond the float range") from None
    if abs(a.sum()) > 1e-9:
        raise InvalidInputError("Cartan vector is not traceless")
    return 1j * np.diag(a)


def mu_height(p: np.ndarray, u: np.ndarray) -> float:
    """mu_u(p) = <p, u> = -Re tr(p u), the trace-form height."""
    import numpy as np
    return float(-np.real(np.trace(p @ u)))


def sorted_spectrum(p: np.ndarray) -> np.ndarray:
    """Eigenvalues of -i*p (real for skew-Hermitian p), ascending; per
    matrix for a stack."""
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


def matrix_orbit_point(x0: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The point g x0 g^{-1} of the matrix orbit, validated."""
    import numpy as np
    p = g @ x0 @ g.conj().T
    if np.abs(p + p.conj().T).max() > _HERM_TOL:
        raise InvalidInputError("orbit point is not skew-Hermitian")
    if abs(np.trace(p)) > _HERM_TOL:
        raise InvalidInputError("orbit point is not traceless")
    if np.abs(sorted_spectrum(p) - sorted_spectrum(x0)).max() > _HERM_TOL:
        raise InvalidInputError("orbit point changed the eigenvalue multiset")
    return p


class AscentResult(NamedTuple):
    """One lockstep ascent: per-lane arrays, face-major, so lane
    f * len(seeds) + k is the ascent of the f-th u from the k-th seed."""

    seeds: tuple[int, ...]
    points: np.ndarray
    start_points: np.ndarray
    values: np.ndarray
    #: ||[p, u]|| at the start of each lane's last iteration
    grad_norms: np.ndarray
    #: largest per-step eigenvalue drift seen along each lane's ascent
    spectral_drifts: np.ndarray
    iteration_counts: np.ndarray
    converged_flags: np.ndarray

    @property
    def iterations(self) -> int:
        """Iterations summed over the lanes."""
        return int(self.iteration_counts.sum())

    @property
    def converged(self) -> bool:
        """Whether every lane converged."""
        return bool(self.converged_flags.all())


def _heights(p: np.ndarray, d: np.ndarray) -> np.ndarray:
    """mu_height of each point of a stack, for diagonal u = diag(d) (one d,
    or one per point).  The diagonal of p u is p_ii d_i: the other terms of
    each matmul sum are exact zeros, so this and trace(p @ u) share bits."""
    import numpy as np
    return -np.real((np.diagonal(p, axis1=-2, axis2=-1) * d).sum(axis=-1))


def _brackets(p: np.ndarray, d: np.ndarray) -> np.ndarray:
    """[p, u] = p u - u p of each point of a stack, for u = diag(d) per
    point: entry (i, j) is p_ij d_j - d_i p_ij, with the bits of the matmuls
    for the reason `_heights` gives."""
    return p * d[:, None, :] - d[:, :, None] * p


def _norms(z: np.ndarray) -> np.ndarray:
    """Frobenius norms of stacked complex matrices, as np.linalg.norm takes
    them: sqrt(re.re + im.im), each term one BLAS dot, so the bits agree."""
    import numpy as np
    count, n, _ = z.shape
    flat = z.reshape(count, 1, n * n)
    re, im = flat.real, flat.imag
    sq = re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1)
    return np.sqrt(sq[:, 0, 0])


def haar_starts(x0: np.ndarray, seeds: Sequence[int]) -> np.ndarray:
    """One Haar-random point of the orbit of x0 per seed, each drawn from a
    generator seeded with it, stacked in the order of `seeds`."""
    import numpy as np
    n = x0.shape[0]
    return np.array([
        matrix_orbit_point(x0, random_special_unitary(n, np.random.default_rng(s)))
        for s in seeds])


def ascend(x0: np.ndarray, u: np.ndarray, seeds: Iterable[int]) -> AscentResult:
    """Maximize mu_u over the orbit of x0 from one Haar-random start per seed,
    by Cayley-retraction gradient ascent run on all lanes in lockstep.

    u is one nonzero diagonal matrix or a stack (F, n, n) of them.  Each
    (u, seed) pair is a lane, face-major; the start points are drawn once,
    `haar_starts(x0, seeds)`, and every u ascends from all of them.

    The ascent generator at p is Z = [p, u]; criticality is ||[u, p]|| -> 0.
    The update p <- Q p Q* with Q = (I - tau/2 Z)^{-1}(I + tau/2 Z) stays on
    the orbit exactly up to rounding, and tau is chosen by backtracking from
    1 / (||u|| + 1).  Each step makes one backtracking try for every live
    lane on stacked matrices; every stacked call gives the bits of its 2-D
    call, so each lane follows exactly the arithmetic of an ascent run on its
    own.
    """
    import numpy as np
    n = x0.shape[0]
    us = u[None] if u.ndim == 2 else u
    for uf in us:
        if np.abs(uf - np.diag(np.diag(uf))).max() > 0 or np.abs(np.diag(uf)).max() == 0:
            raise InvalidInputError("u must be a nonzero diagonal matrix")
    seeds = tuple(seeds)
    if not seeds:
        raise InvalidInputError("the ascent needs at least one seed")
    if min(seeds) < 0:
        raise InvalidInputError("seeds must be nonnegative, got %d" % min(seeds))
    starts = np.tile(haar_starts(x0, seeds), (len(us), 1, 1))
    d = np.repeat(np.diagonal(us, axis1=1, axis2=2), len(seeds), axis=0)
    tau0 = np.repeat([1.0 / (np.linalg.norm(uf) + 1.0) for uf in us], len(seeds))
    count = len(starts)
    p = starts.copy()
    eye = np.eye(n, dtype=complex)
    tau = tau0.copy()
    value = _heights(p, d)
    prev_spec = sorted_spectrum(p)
    drift = np.zeros(count)
    iterations = np.zeros(count, dtype=np.int64)
    z = _brackets(p, d)
    grad_norm = _norms(z)
    grad_sq = np.zeros(count)
    converged = grad_norm < _GRAD_TOL
    # Once value improvements shrink below float resolution, Armijo on the
    # height stalls around 1e-8 criticality; the endgame instead accepts
    # steps that strictly shrink the gradient norm (the same vector field).
    endgame = np.zeros(count, dtype=bool)
    first_try = np.ones(count, dtype=bool)
    tries = np.zeros(count, dtype=np.int64)
    live = np.ones(count, dtype=bool)
    fresh = np.ones(count, dtype=bool)  # starts a new iteration before its next try
    while True:
        new = np.flatnonzero(fresh)
        fresh[new] = False
        capped = iterations[new] >= _MAX_ITER
        live[new[capped]] = False
        new = new[~capped]
        iterations[new] += 1
        z[new] = _brackets(p[new], d[new])
        grad_norm[new] = _norms(z[new])
        done = grad_norm[new] < _GRAD_TOL
        converged[new[done]] = True
        live[new[done]] = False
        new = new[~done]
        # Python's float power, not numpy's square: the two differ in the
        # last bit on about one input in a thousand.
        grad_sq[new] = [g ** 2 for g in grad_norm[new].tolist()]
        first_try[new] = True
        tries[new] = 0

        tried = np.flatnonzero(live)
        if not tried.size:
            break
        half = (0.5 * tau[tried])[:, None, None] * z[tried]
        q = np.linalg.solve(eye - half, eye + half)
        cand = q @ p[tried] @ q.conj().transpose(0, 2, 1)
        dt = d[tried]
        cand_val = _heights(cand, dt)
        val = value[tried]
        ok = (cand_val >= val + 0.25 * tau[tried] * grad_sq[tried]) & (cand_val > val)
        late = np.flatnonzero(endgame[tried])
        if late.size:
            cand_grad = _norms(_brackets(cand[late], dt[late]))
            ok[late] = (cand_grad < grad_norm[tried[late]]) & (
                cand_val[late] >= val[late] - 1e-11 * (1.0 + np.abs(val[late])))

        acc = tried[ok]
        p[acc] = cand[ok]
        value[acc] = cand_val[ok]
        spec = sorted_spectrum(p[acc])
        drift[acc] = np.maximum(drift[acc], np.abs(spec - prev_spec[acc]).max(axis=1))
        prev_spec[acc] = spec
        grow = acc[first_try[acc]]
        tau[grow] = np.minimum(tau[grow] * 1.5, 1e3)
        fresh[acc] = True

        rej = tried[~ok]
        tau[rej] *= 0.5
        first_try[rej] = False
        tries[rej] += 1
        spent = rej[tries[rej] == _MAX_TRIES]
        live[spent[endgame[spent]]] = False
        enter = spent[~endgame[spent]]
        endgame[enter] = True
        tau[enter] = np.maximum(tau[enter], tau0[enter])
        fresh[enter] = True
    return AscentResult(seeds=seeds, points=p, start_points=starts, values=value,
                        grad_norms=grad_norm, spectral_drifts=drift,
                        iteration_counts=iterations, converged_flags=converged)


class HessianReport(NamedTuple):
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
    return np.array([float(c) for c in x], dtype=float)


def hessian_signature(x_crit, u) -> HessianReport:
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
            if abs(r) <= _ZERO_TOL:
                excluded.append((i, j))
                continue
            eig = -s / r
            blocks.append((i, j, r, s, eig))
            if abs(eig) <= _ZERO_TOL:
                zero += 2
            elif eig < 0:
                neg += 2
            else:
                pos += 2
    fd_err = 0.0
    x_mat = 1j * np.diag(a)
    u_mat = 1j * np.diag(b)
    eye = np.eye(n, dtype=complex)
    h = _FD_STEP
    for i, j, r, s, eig in blocks:
        u_dir = np.zeros((n, n), dtype=complex)
        u_dir[i, j] = 1 / np.sqrt(2.0)
        u_dir[j, i] = -1 / np.sqrt(2.0)
        v_dir = np.zeros((n, n), dtype=complex)
        v_dir[i, j] = 1j / np.sqrt(2.0)
        v_dir[j, i] = 1j / np.sqrt(2.0)
        for z in (v_dir / r, -u_dir / r):
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


def shadows_escape(poly: KostantPolytope, shadows: np.ndarray) -> np.ndarray:
    """Whether each shadow lies beyond a facet of P by more than `_INSIDE_TOL`."""
    import numpy as np
    normals = np.sort([[float(c) for c in f.normal] for f in poly.facets_through_x], axis=1)
    offsets = np.array([float(f.offset) for f in poly.facets_through_x])
    return ~(np.sort(shadows, axis=1) @ normals.T <= offsets + _INSIDE_TOL).all(axis=1)


def verify_face_numeric(classification: FaceClassification,
                        faces: Sequence[FaceDescriptor], seeds: int = 20,
                        seed_base: int = 0) -> list[dict]:
    """Cross-validate face classes on the su(n) realization: one report per
    descriptor of `faces`, in their order.

    Every descriptor is validated before any ascent.  One lockstep `ascend`
    then runs each face's exposing vector from every seed, and the faces are
    checked in order: convergence (which is criticality), the achieved value
    against the exact support value, spectral invariance along the ascent,
    momentum containment of all Cartan projections, the value ceiling,
    membership of the maximizers in sigma, and the Hessian block signs, all
    at the module's fixed tolerances.  The first face with a mismatch raises
    TheoremViolationError with a counterexample summary.
    """
    import numpy as np
    rs = classification.root_system
    if rs.type_label != "A":
        raise InvalidInputError("numeric verification is realized for type A only")
    if any(d.improper for d in faces):
        raise InvalidInputError("the improper descriptor has no exposing vector")
    if seeds < 1:
        raise InvalidInputError("numeric verification needs at least one seed, got %d" % seeds)
    if seed_base < 0:
        raise InvalidInputError("the seed must be nonnegative, got %d" % seed_base)
    if not faces:
        return []
    poly = classification.polytope
    n = rs.rank + 1
    factor = rs.killing_ratio
    x0 = su_from_cartan(classification.x.vector)
    us = np.array([su_from_cartan(d.exposing_u) for d in faces])
    res = ascend(x0, us, seeds=range(seed_base, seed_base + seeds))
    # the float data of P and the u-free checks, once for every lane
    vertices = np.array([[float(c) for c in v] for v in poly.vertices])
    shadows = np.imag(np.diagonal(np.stack((res.start_points, res.points)), axis1=2, axis2=3))
    escapes = dict(zip(("start", "maximizer"),
                       shadows_escape(poly, shadows.reshape(-1, n)).reshape(2, -1)))
    reports = []
    for f, (d, u) in enumerate(zip(faces, us)):
        lanes = slice(f * seeds, (f + 1) * seeds)
        # this face's lanes, as the per-seed result of an ascent of its own
        face = AscentResult(res.seeds, *(a[lanes] for a in res[1:]))
        u_exact = d.exposing_u
        _, h = support_set(poly, u_exact)
        h_trace = float(h)
        sigma_set = set(d.sigma.vertex_indices)
        blocks: dict[Fraction, list[int]] = {}
        for i, c in enumerate(u_exact):
            blocks.setdefault(c, []).append(i)
        exceeds = {name: _heights(q, np.diag(u)) > h_trace + _INSIDE_TOL
                   for name, q in (("start", face.start_points), ("maximizer", face.points))}
        plane_gap = np.abs(shadows[1, lanes] @ np.array([float(c) for c in u_exact]) - h_trace)
        # block-diagonalize within the eigenspaces of u and round to the orbit
        assembled = np.zeros((seeds, n))
        for idx in blocks.values():
            sub = face.points[:, idx][:, :, idx]
            assembled[:, idx] = sorted_spectrum(sub)[:, ::-1]
        dist = np.abs(vertices[None, :, :] - assembled[:, None, :]).max(axis=2)
        nearest = dist.argmin(axis=1)

        failures: list[str] = []
        for k, seed in enumerate(face.seeds):
            tag = "seed %d" % seed
            if not face.converged_flags[k]:
                failures.append("%s: no convergence (grad %.2e)" % (tag, face.grad_norms[k]))
                continue
            gap = abs(face.values[k] - h_trace)
            if gap > _VALUE_TOL:
                failures.append("%s: value gap %.2e > %.0e" % (tag, gap, _VALUE_TOL))
            if face.spectral_drifts[k] > _DRIFT_TOL:
                failures.append("%s: spectral drift %.2e per step"
                                % (tag, face.spectral_drifts[k]))
            for name in ("start", "maximizer"):
                if escapes[name][lanes][k]:
                    failures.append("%s: %s momentum shadow escapes P" % (tag, name))
                if exceeds[name][k]:
                    failures.append("%s: %s exceeds the support ceiling" % (tag, name))
            if plane_gap[k] > _VALUE_TOL:
                failures.append("%s: maximizer shadow is not on the supporting hyperplane" % tag)
            near = nearest[k]
            if dist[k, near] > _ROUND_TOL:
                failures.append("%s: maximizer does not round to an orbit point (%.2e)"
                                % (tag, dist[k, near]))
            elif near not in sigma_set:
                failures.append("%s: maximizer rounds to vertex %d outside sigma" % (tag, near))

        hess = hessian_signature(poly.vertices[d.sigma.vertex_indices[0]], u_exact)
        if not hess.is_max:
            failures.append("Hessian on sigma vertex has positive blocks")
        if hess.fd_max_error > _FD_TOL:
            failures.append("Hessian finite-difference error %.2e > %.0e"
                            % (hess.fd_max_error, _FD_TOL))
        if failures:
            raise TheoremViolationError(
                "numeric verification failed for I=%s:\n  %s"
                % (d.I, "\n  ".join(failures)))
        reports.append({
            "I": [rs.root_label(i) for i in d.I],
            "n": n,
            "trace_killing_factor": int(factor),
            "h_killing": str(factor * h),
            "h_trace": h_trace,
            "n_seeds": seeds,
            "n_converged": int(face.converged_flags.sum()),
            "max_iterations": int(face.iteration_counts.max()),
            "max_grad_norm": float(face.grad_norms.max()),
            "max_value_gap": float(np.abs(face.values - h_trace).max()),
            "max_step_drift": float(face.spectral_drifts.max()),
            "hessian_counts": list(hess.counts),
            "hessian_fd_error": hess.fd_max_error,
            "ok": True,
        })
    return reports
