"""Floating-point cross-validation on su(n) adjoint orbits.

Only type A is realized numerically: a chamber point x becomes the diagonal
skew-Hermitian matrix x0 = i*diag(a), the orbit is swept by Haar-random
special unitaries, and the height function mu_u(p) = -Re tr(p u) is
maximized by a damped, saddle-free Riemannian Newton ascent on the unitary
frame (Absil, Mahony and Sepulchre, Optimization Algorithms on Matrix
Manifolds, 2008, ch. 6 and 7).  Each lane keeps a frame V with p = V x0 V*;
for u = i*diag(b), mu_u(p) = sum_k a_k H_kk with H = V* diag(b) V.  A step
first turns V inside each eigenspace of x0 so that H's diagonal blocks there
are diagonal (p does not move), then multiplies V by the Cayley transform of
Omega_kj = -r_kj H_kj / (lambda + |r_kj (H_kk - H_jj)|), r_kj = a_k - a_j.
The denominator is the root-plane Hessian block -s/r of `hessian_signature`
in these coordinates, taken in absolute value so that saddles are left, and
at a critical point H is diagonal, so the model is exact there and the
ascent converges quadratically.  The Cayley transform keeps V unitary, so p
stays on the orbit up to rounding (Wen and Yin, Math. Program. 142, 2013).
The damping lambda is set by the ratio of the actual gain to the gain of the
quadratic model, as in a trust region.  Every (face, seed) lane of a run
ascends in one lockstep on stacked (faces * seeds, n, n) arrays, one step
per live lane per iteration, each lane with its own u, frame and damping.
Stacked matmul, solve and eigh give the bits of their 2-D calls, and every
sum is taken over one lane's contiguous entries, so each lane's result
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
A run converts the vertices (from their integer rows, in one division) and
the facets through x to floats once, and tests the shadows of all its lanes
against them in one call.  Each face's exact support value is h = u . x:
x lies in sigma, and `classify_faces` has certified that u exposes sigma, so
no pass over the orbit is made again here.  The tolerances and the iteration
cap are fixed module constants, not settings or arguments.  Each tolerance
is relative: a point or spectrum is compared at ||x0|| = max |a_k|, a height,
value or ||[p, u]|| at ||x0|| ||u|| (||u|| = max |b_k|), n . y at ||x0|| |n|_1.

This module imports numpy at its top, and nothing imports this module until
a run reaches the su(n) check: `cli.verify_face_numeric` and the package's
`__getattr__` import it on first use.  So importing the package, and every
run that never reaches the check, loads neither, and a type-A run loads
numpy's core only, never `numpy.random` or `numpy.ma`.
Every lane of a run starts from the run's one seeded Haar draw
(`haar_starts`), whose Gaussians come from the standard library's
`random.Random(seed)`; the eigenspaces of x0 come from its distinct diagonal
values sorted in Python, since `np.unique` loads `numpy.ma`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import InvalidInputError, TheoremViolationError
from .faces import FaceClassification, FaceDescriptor
from .linalg import dot
from .polytope import KostantPolytope

_HERM_TOL = 1e-10
#: a seed has converged once ||[p, u]|| falls below this.  Convergence is
#: the criticality check: a converged seed is critical to 1e-10, which
#: already meets a criticality bound of 1e-8, so no separate bound is tested.
_GRAD_TOL = 1e-10
#: largest gap between a maximizer's height and the exact support value, and
#: between its momentum shadow and the supporting hyperplane
_VALUE_TOL = 1e-8
#: largest finite-difference error of the Hessian block eigenvalues, relative
#: to max(1, |eigenvalue|)
_FD_TOL = 1e-5
#: ascent iterations per seed before it counts as not converged
_MAX_ITER = 10000
#: largest spectral drift per ascent step a numeric check accepts
_DRIFT_TOL = 1e-9
#: slack of the facet and support-ceiling tests on float points
_INSIDE_TOL = 1e-9
#: largest distance from a maximizer to the orbit point it rounds to
_ROUND_TOL = 1e-6
#: rotation angle of the finite-difference Hessian check
_FD_STEP = 1e-3
#: differences of x's or u's entries at most this are zero in the Hessian signs
_ZERO_TOL = 1e-12
#: largest spread of a Cartan vector's entries over their smallest gap: past it the float
#: ascent cannot see a small root plane beside a large one (points of A2 to A6 pass at
#: ratios up to 6e7; some of A3 and A4 stall or end in the wrong chamber from 2e8)
_GAP_RATIO = 10 ** 7


def su_from_cartan(v: Sequence) -> np.ndarray:
    """The diagonal skew-Hermitian matrix i*diag(v) for a realization vector."""
    try:
        a = np.array([float(Fraction(c)) for c in v])
    except OverflowError:
        raise InvalidInputError("Cartan vector has an entry beyond the float range") from None
    if abs(a.sum()) > _HERM_TOL * np.abs(a).max():
        raise InvalidInputError("Cartan vector is not traceless")
    values = sorted(set(map(Fraction, v)))
    gaps = [q - p for p, q in zip(values, values[1:])]
    if gaps and sum(gaps) > _GAP_RATIO * min(gaps):
        raise InvalidInputError("the su(n) check does not resolve this Cartan vector: its entries "
                                "spread over more than %.0e times their smallest gap" % _GAP_RATIO)
    return 1j * np.diag(a)


def sorted_spectrum(p: np.ndarray) -> np.ndarray:
    """Eigenvalues of -i*p (real for skew-Hermitian p), ascending; per
    matrix for a stack."""
    return np.linalg.eigvalsh(-1j * p)


def random_special_unitaries(n: int, seeds: Sequence[int]) -> np.ndarray:
    """One Haar-distributed element of SU(n) per seed, stacked: the QR of a
    complex Gaussian matrix with the phases of R's diagonal moved into Q, and
    the first column divided by the determinant.  Each seed's 2 n^2
    Gaussians, real parts first, come from `random.Random(seed)`."""
    draws = []
    for s in seeds:
        gauss = random.Random(s).gauss
        draws.append([gauss(0.0, 1.0) for _ in range(2 * n * n)])
    w = np.array(draws).reshape(-1, 2, n, n)
    q, r = np.linalg.qr((w[:, 0] + 1j * w[:, 1]) / np.sqrt(2.0))
    ph = np.diagonal(r, axis1=1, axis2=2)
    q = q * (ph / np.abs(ph))[:, None, :]
    q[:, :, 0] /= np.linalg.det(q)[:, None]
    return q


def matrix_orbit_point(x0: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The point g x0 g^{-1} of the matrix orbit, validated; for a stack of
    g, the stack of points."""
    p = g @ x0 @ g.conj().swapaxes(-1, -2)
    tol = _HERM_TOL * np.abs(x0).max()
    if np.abs(p + p.conj().swapaxes(-1, -2)).max() > tol:
        raise InvalidInputError("orbit point is not skew-Hermitian")
    if np.abs(np.trace(p, axis1=-2, axis2=-1)).max() > tol:
        raise InvalidInputError("orbit point is not traceless")
    if np.abs(sorted_spectrum(p) - sorted_spectrum(x0)).max() > tol:
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
    """The trace-form height mu_u(p) = -Re tr(p u) of each point of a
    stack, for diagonal u = diag(d) (one d, or one per point).  The diagonal
    of p u is p_ii d_i: the other terms of each matmul sum are exact zeros,
    so this and trace(p @ u) share bits."""
    return -np.real((np.diagonal(p, axis1=-2, axis2=-1) * d).sum(axis=-1))


def _lane_sums(z: np.ndarray) -> np.ndarray:
    """The sum of each lane's entries of a stacked (lanes, n, n) real array,
    taken over its contiguous n*n entries, as the 2-D `.sum()` takes them."""
    return z.reshape(len(z), -1).sum(axis=1)


def _frame_h(v: np.ndarray, b: np.ndarray) -> np.ndarray:
    """H = V* diag(b) V for each frame V of a stack and its row b, made
    exactly Hermitian: Omega divides H by the damping, which can be far
    below |r|, and a skew part of Omega would make the Cayley factor lose
    unitarity."""
    h = v.conj().swapaxes(1, 2) @ (b[:, :, None] * v)
    return 0.5 * (h + h.conj().swapaxes(1, 2))


def _abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 entrywise, without the square root of np.abs."""
    return z.real ** 2 + z.imag ** 2


def haar_starts(x0: np.ndarray, seeds: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """One Haar-random frame g per seed, in the order of `seeds`, and the
    validated orbit points g x0 g* it starts from."""
    g = random_special_unitaries(x0.shape[0], seeds)
    return g, matrix_orbit_point(x0, g)


def ascend(x0: np.ndarray, u: np.ndarray, seeds: Iterable[int]) -> AscentResult:
    """Maximize mu_u over the orbit of x0 from one Haar-random start per seed,
    by a damped, saddle-free Riemannian Newton ascent run on all lanes in
    lockstep.

    u is one nonzero diagonal matrix or a stack (F, n, n) of them.  Each
    (u, seed) pair is a lane, face-major; the start frames are drawn once,
    by `haar_starts(x0, seeds)`, and every u ascends from all of them.

    With x0 = i*diag(a), u = i*diag(b) and p = V x0 V*, each iteration turns
    V inside the eigenspaces of x0 until the diagonal blocks of
    H = V* diag(b) V are diagonal, stops the lane if ||[p, u]||, which is
    sqrt(sum_kj r_kj^2 |H_kj|^2) with r_kj = a_k - a_j, is below the
    tolerance times c = max|a| max|b|, and otherwise tries V <- V cayley(Omega)
    with Omega_kj = -r_kj H_kj / (lambda + |r_kj (H_kk - H_jj)|).  The try is
    accepted when mu_u rises by at least 1e-4 of the first-order prediction,
    or, once that prediction is below 1e-12 (c + |mu|), when ||[p, u]||
    falls and mu_u drops by at most 1e-11 (c + |mu|).  lambda starts at
    max|b| (max a - min a); it is multiplied by 0.3 when the gain exceeds
    half the quadratic model's, and by 4 on a rejection or when it is below
    a quarter of it.  A lane stops unconverged at the iteration cap, or once
    lambda overflows, when its step can no longer move it.  Every stacked
    call gives the bits of its 2-D call, so each lane follows exactly the
    arithmetic of an ascent run on its own.
    """
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
    frames, starts = haar_starts(x0, seeds)
    v = np.tile(frames, (len(us), 1, 1))
    starts = np.tile(starts, (len(us), 1, 1))
    a = np.diag(x0).imag
    b = np.repeat(np.diagonal(us, axis1=1, axis2=2).imag, len(seeds), axis=0)
    r = a[:, None] - a[None, :]
    r2 = r * r
    # the eigenspaces of x0 in which the frame turns freely (not by np.unique,
    # which loads numpy.ma)
    blocks = [np.flatnonzero(a == c) for c in sorted(set(a.tolist()))]
    blocks = [idx for idx in blocks if len(idx) > 1]
    # mu_u(V x0 V*) = sum_ik b_i |V_ik|^2 a_k
    weights = b[:, :, None] * a
    count = len(v)
    lam = np.abs(b).max(axis=1) * (a.max() - a.min())
    size = np.abs(b).max(axis=1) * np.abs(a).max()  # ||x0|| ||u|| per lane
    value = _lane_sums(_abs2(v) * weights)
    prev_spec = sorted_spectrum(starts)
    drift = np.zeros(count)
    iterations = np.zeros(count, dtype=np.int64)
    grad_norm = np.zeros(count)
    converged = np.zeros(count, dtype=bool)
    eye = np.eye(n)
    live = np.arange(count)
    while True:
        # a lane whose damping overflowed can no longer move
        live = live[(iterations[live] < _MAX_ITER) & np.isfinite(lam[live])]
        if not live.size:
            break
        iterations[live] += 1
        vl, bl = v[live], b[live]
        h = _frame_h(vl, bl)
        if blocks:
            for idx in blocks:
                vl[:, :, idx] = vl[:, :, idx] @ np.linalg.eigh(h[:, idx][:, :, idx])[1]
            h = _frame_h(vl, bl)
            v[live] = vl
        h2 = _abs2(h)
        grad_sq = _lane_sums(r2 * h2)
        grad_norm[live] = np.sqrt(grad_sq)
        done = grad_norm[live] < _GRAD_TOL * size[live]
        converged[live[done]] = True
        live, vl, bl, h, h2, grad_sq = (z[~done] for z in (live, vl, bl, h, h2, grad_sq))
        if not live.size:
            break

        hd = np.diagonal(h, axis1=1, axis2=2).real
        curv = r * (hd[:, :, None] - hd[:, None, :])
        damp = lam[live][:, None, None] + np.abs(curv)
        half = -0.5 * r * h / damp
        cand = vl @ np.linalg.solve(eye - half, eye + half)
        cand_val = _lane_sums(_abs2(cand) * weights[live])
        val = value[live]
        gain = cand_val - val
        terms = r2 * h2 / damp
        pred = _lane_sums(terms)
        model = pred - 0.5 * _lane_sums(terms * curv / damp)
        ok = gain >= 1e-4 * pred
        scale = size[live] + np.abs(val)
        late = np.flatnonzero(~ok & (pred < 1e-12 * scale))
        if late.size:
            cand_grad_sq = _lane_sums(r2 * _abs2(_frame_h(cand[late], bl[late])))
            ok[late] = (cand_grad_sq < grad_sq[late]) & (gain[late] >= -1e-11 * scale[late])
        # a null step (pred and model 0) counts as a poor one
        ratio = np.divide(gain, model, out=np.zeros(len(live)), where=model > 0)
        lam[live[ok & (ratio > 0.5)]] *= 0.3
        with np.errstate(over="ignore"):
            lam[live[~ok | (ratio < 0.25)]] *= 4.0

        acc = live[ok]
        v[acc] = cand[ok]
        value[acc] = cand_val[ok]
        spec = sorted_spectrum(_points(v[acc], a))
        drift[acc] = np.maximum(drift[acc], np.abs(spec - prev_spec[acc]).max(axis=1))
        prev_spec[acc] = spec
    return AscentResult(seeds=seeds, points=_points(v, a), start_points=starts, values=value,
                        grad_norms=grad_norm, spectral_drifts=drift,
                        iteration_counts=iterations, converged_flags=converged)


def _points(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The orbit points V x0 V* = V i*diag(a) V* of a stack of frames."""
    return (v * (1j * a)) @ v.conj().swapaxes(1, 2)


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


def hessian_signature(x_crit, u) -> HessianReport:
    """Per-root-plane Hessian signs at a diagonal critical point, plus a
    finite-difference cross-check of the block eigenvalues.

    The check runs each root plane (i, j) on its own 2x2 block with a and b
    centred, (r/2, -r/2) and (s/2, -s/2): a scalar shift of x or u only adds
    a constant to mu along the curve.  Along both unit directions of the
    plane, scaled by 1/r, the second difference at step `_FD_STEP` |r| (a
    rotation angle of about `_FD_STEP`) should be -s/r; the reported error is
    |second difference - eigenvalue| / max(1, |eigenvalue|).
    """
    a, b = np.array([float(c) for c in x_crit]), np.array([float(c) for c in u])
    n = len(a)
    a_zero, b_zero = _ZERO_TOL * np.abs(a).max(), _ZERO_TOL * np.abs(b).max()
    blocks, excluded = [], []
    neg = zero = pos = 0
    for i in range(n):
        for j in range(i + 1, n):
            r = a[i] - a[j]
            s = b[i] - b[j]
            if abs(r) <= a_zero:
                excluded.append((i, j))
                continue
            eig = -s / r
            blocks.append((i, j, r, s, eig))
            if abs(s) <= b_zero:
                zero += 2
            elif eig < 0:
                neg += 2
            else:
                pos += 2
    fd_err = 0.0
    if blocks:
        _, _, r, s, eig = np.array(blocks).T
        h = _FD_STEP * np.abs(r)
        w = 1 / np.sqrt(2.0)
        # the two unit directions of a root plane, at t = -h, 0, h
        dirs = np.array([[[0, 1j * w], [1j * w, 0]], [[0, -w], [w, 0]]])
        z = (h[:, None] * [-1.0, 0.0, 1.0] / r[:, None])[:, None, :, None, None] * dirs[:, None]
        eye = np.eye(2)
        # Cayley curve: same velocity as the exponential, and the point is
        # critical, so the second derivative matches.
        g = np.linalg.solve(eye - 0.5 * z, eye + 0.5 * z)
        sign = np.array([0.5, -0.5])
        x_diag = (1j * r[:, None] * sign)[:, None, None, None, :]
        p = (g * x_diag) @ g.conj().swapaxes(-1, -2)
        val = _heights(p, (1j * s[:, None] * sign)[:, None, None, :])
        second = (val[..., 0] - 2.0 * val[..., 1] + val[..., 2]) / (h * h)[:, None]
        fd_err = float((np.abs(second - eig[:, None])
                        / np.maximum(1.0, np.abs(eig))[:, None]).max())
    return HessianReport(blocks=tuple(blocks), excluded=tuple(excluded),
                         counts=(neg, zero, pos), fd_max_error=fd_err,
                         is_max=pos == 0, is_min=neg == 0)


def shadows_escape(poly: KostantPolytope, shadows: np.ndarray, x_size: float) -> np.ndarray:
    """Whether each shadow lies beyond a facet n . y <= c by over `_INSIDE_TOL` ||x0|| |n|_1."""
    normals = np.sort([[float(c) for c in f.normal] for f in poly.facets_through_x], axis=1)
    offsets = np.array([float(f.offset) for f in poly.facets_through_x])
    return ~(np.sort(shadows, axis=1) @ normals.T
             <= offsets + _INSIDE_TOL * x_size * np.abs(normals).sum(axis=1)).all(axis=1)


def vertex_floats(poly: KostantPolytope) -> np.ndarray:
    """The vertices of P as a float table, from the integer rows in one
    division: over Python ints, each quotient is correctly rounded, so the
    bits are those of float(Fraction) per coordinate at every size."""
    return (np.array(poly.vertex_ints, dtype=object) / poly.vertex_scale).astype(float)


def verify_face_numeric(classification: FaceClassification,
                        faces: Sequence[FaceDescriptor], seeds: int = 20,
                        seed_base: int = 0) -> list[dict]:
    """Cross-validate face classes on the su(n) realization: one report per
    descriptor of `faces`, in their order.

    Every descriptor is validated before any ascent.  One lockstep `ascend`
    then runs each face's exposing vector from every seed, all from one
    Haar draw, and the faces are checked in order: convergence (which is
    criticality), the achieved value against the exact support value
    h = u . x, spectral invariance along the ascent, momentum containment of
    all Cartan projections, the value ceiling, membership of the maximizers
    in sigma, and the Hessian block signs, all at the module's fixed
    tolerances.  The first face with a mismatch raises TheoremViolationError
    with a counterexample summary.
    """
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
    x0 = su_from_cartan(classification.x.vector)
    x_size = np.abs(x0).max()
    us = np.array([su_from_cartan(d.exposing_u) for d in faces])
    res = ascend(x0, us, range(seed_base, seed_base + seeds))
    # the float data of P and the u-free checks, once for every lane
    vertices = vertex_floats(poly)
    shadows = np.imag(np.diagonal(np.stack((res.start_points, res.points)), axis1=2, axis2=3))
    escapes = dict(zip(("start", "maximizer"),
                       shadows_escape(poly, shadows.reshape(-1, n), x_size).reshape(2, -1)))
    reports = []
    for f, (d, u) in enumerate(zip(faces, us)):
        lanes = slice(f * seeds, (f + 1) * seeds)
        # this face's lanes, as the per-seed result of an ascent of its own
        face = AscentResult(res.seeds, *(a[lanes] for a in res[1:]))
        u_exact = d.exposing_u
        # x lies in sigma, which u exposes (`classify_faces` certified it)
        h = dot(u_exact, classification.x.vector)
        h_trace = float(h)
        size = x_size * np.abs(u).max()  # ||x0|| ||u||
        sigma_set = set(d.sigma.vertex_indices)
        blocks: dict[Fraction, list[int]] = {}
        for i, c in enumerate(u_exact):
            blocks.setdefault(c, []).append(i)
        exceeds = {name: _heights(q, np.diag(u)) > h_trace + _INSIDE_TOL * size
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
            if gap > _VALUE_TOL * size:
                failures.append("%s: value gap %.2e > %.0e" % (tag, gap, _VALUE_TOL * size))
            if face.spectral_drifts[k] > _DRIFT_TOL * x_size:
                failures.append("%s: spectral drift %.2e per step"
                                % (tag, face.spectral_drifts[k]))
            for name in ("start", "maximizer"):
                if escapes[name][lanes][k]:
                    failures.append("%s: %s momentum shadow escapes P" % (tag, name))
                if exceeds[name][k]:
                    failures.append("%s: %s exceeds the support ceiling" % (tag, name))
            if plane_gap[k] > _VALUE_TOL * size:
                failures.append("%s: maximizer shadow is not on the supporting hyperplane" % tag)
            near = nearest[k]
            if dist[k, near] > _ROUND_TOL * x_size:
                failures.append("%s: maximizer does not round to an orbit point (%.2e)"
                                % (tag, dist[k, near]))
            elif near not in sigma_set:
                failures.append("%s: maximizer rounds to vertex %d outside sigma" % (tag, near))

        hess = hessian_signature(vertices[d.sigma.vertex_indices[0]], u_exact)
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
            "trace_killing_factor": int(rs.killing_ratio),
            "h_killing": str(rs.killing_ratio * h),
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
