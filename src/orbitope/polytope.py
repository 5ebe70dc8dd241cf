"""Exact convex geometry over the rationals.

Hulls are computed from the V-representation by double description on the
lifted cone.  The points are taken in coordinates of their affine hull and
lifted to primitive integer rows, so the double description, the facet tight
and cut tests, the vertex test, the facet values and the grading of the face
lattice all run on Python ints; only the reported facet normals and offsets
are turned back into exact fractions.  The face lattice is the closure of the
facet/vertex incidences under intersection, graded by the fraction-free rank
of the rows of the facets through each face.  A face is just its vertex set
and its dimension: its affine hull is the intersection of the facets through
it (G. M. Ziegler, Lectures on Polytopes, 2.1), so any geometry of a face is
read off those facets (`facets_through`).  This module is the independent
oracle the combinatorial face classification is checked against, so there is
no floating point anywhere.

The Weyl group reaches a polytope only through the r simple-reflection
permutations of its vertices (`act_on_faces`, `face_orbit`).  An exposing
vector fixed by a face's stabilizer is a sum of facet normals, each divided
by offset - normal . b for the vertex barycenter b, so it needs no group
element at all.

Every inner product here is the coordinate dot product.  On a Kostant
polytope that loses nothing: W.x lies in the root span, where W acts by
reflections orthogonal for the dot product, and the Killing form is
`killing_ratio` times it (the argument is in `roots`).  So facets, support
sets and exposed faces are those of the Killing form; offsets and support
values are its values divided by `killing_ratio`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import CapExceededError, InvalidInputError, TheoremViolationError
from .linalg import (Vector, dot, int_dot, int_rank, integral_rows, inverse,
                     lincomb, mat_mul, primitive, rref, transpose, vadd, vec,
                     vscale, vsub, zero_vec)
from .weyl import WeylGroup, vertex_permutations

#: desk-scale guard on hull input size
DEFAULT_HULL_CAP = 200


@dataclass(frozen=True)
class PolytopeFace:
    """A face, stored by its sorted vertex-index set and graded by dimension."""

    vertex_indices: tuple[int, ...]
    dim: int


@dataclass(frozen=True)
class Facet:
    """Outward normal and offset: normal . x <= offset on P.  The normal, a
    primitive integer vector, is the same for every W-invariant form; the
    offset is in dot-product units, the Killing one over `killing_ratio`."""

    normal: Vector
    offset: Fraction
    vertex_indices: tuple[int, ...]


@dataclass(frozen=True)
class FaceOrbit:
    """One W-orbit of faces of a fixed dimension, canonical representative first."""

    dim: int
    representative: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]


class ExactPolytope:
    """Exact polytope with full face lattice; immutable after construction."""

    def __init__(self, vertices: tuple[Vector, ...], ambient_dim: int, affine_dim: int,
                 facets: tuple[Facet, ...],
                 face_lattice: dict[int, tuple[PolytopeFace, ...]]):
        self.vertices = vertices
        self.ambient_dim = ambient_dim
        self.affine_dim = affine_dim
        self.facets = facets
        self.face_lattice = face_lattice
        self._by_vertices = {f.vertex_indices: f for fs in face_lattice.values() for f in fs}
        self._perm_cache: dict[WeylGroup, tuple[tuple[int, ...], ...]] = {}

    @cached_property
    def _integral_vertices(self) -> tuple[list[tuple[int, ...]], int]:
        """The vertices times their common denominator, and that denominator."""
        return integral_rows(self.vertices)

    # -- basic queries ------------------------------------------------------

    @property
    def top(self) -> PolytopeFace:
        return self.face_lattice[self.affine_dim][0]

    def face(self, vertex_indices: Iterable[int]) -> PolytopeFace:
        key = tuple(sorted(vertex_indices))
        if key not in self._by_vertices:
            raise InvalidInputError("no face with vertex set %s" % (key,))
        return self._by_vertices[key]

    def has_face(self, vertex_indices: Iterable[int]) -> bool:
        return tuple(sorted(vertex_indices)) in self._by_vertices

    def proper_faces(self) -> tuple[PolytopeFace, ...]:
        out = []
        for d in sorted(self.face_lattice):
            for f in self.face_lattice[d]:
                if f is not self.top:
                    out.append(f)
        return tuple(out)

    def f_vector(self) -> tuple[int, ...]:
        """Face counts per dimension, top face included."""
        return tuple(len(self.face_lattice[d]) for d in sorted(self.face_lattice))

    def _permutations(self, group: WeylGroup) -> tuple[tuple[int, ...], ...]:
        # Keyed by the group itself: the cache holds a reference, so a key
        # cannot be recycled for another group as an id() could.
        if group not in self._perm_cache:
            self._perm_cache[group] = vertex_permutations(group, self.vertices)
        return self._perm_cache[group]


def hull(points: Sequence[Sequence], cap: int = DEFAULT_HULL_CAP) -> ExactPolytope:
    """Exact convex hull with complete face lattice.

    Points are deduplicated; the polytope is processed inside its affine hull,
    so lower-dimensional inputs are graded correctly.  Rejects more than `cap`
    points (desk-scale guard); a single repeated point yields the degenerate
    vertex-only polytope.
    """
    pts: list[Vector] = []
    seen = set()
    for p in points:
        v = vec(p)
        if v not in seen:
            seen.add(v)
            pts.append(v)
    if not pts:
        raise InvalidInputError("hull of an empty point set")
    if len(pts) > cap:
        raise CapExceededError("hull input has %d points, cap is %d" % (len(pts), cap))
    ambient_dim = len(pts[0])
    if any(len(p) != ambient_dim for p in pts):
        raise InvalidInputError("points have mixed dimensions")

    base = pts[0]
    red, pivots = rref([vsub(p, base) for p in pts[1:]])
    dir_basis = red[:len(pivots)]
    d = len(dir_basis)

    if d == 0:
        face = PolytopeFace(vertex_indices=(0,), dim=0)
        return ExactPolytope(vertices=(pts[0],), ambient_dim=ambient_dim, affine_dim=0,
                             facets=(), face_lattice={0: (face,)})

    # The reduced basis is the identity on its pivot columns, so a point's
    # affine coordinates are its offset from the base point read there.  Each
    # lifted row is a positive integer multiple of (1, coordinates).
    rows = [primitive((Fraction(1),) + tuple(p[c] - base[c] for c in pivots)) for p in pts]
    rays = _dd_rays(rows, d + 1)

    # Each extreme ray (a0, a) of the lifted dual cone is a valid inequality
    # a0 + a.q >= 0 on the coordinates, i.e. the facet (-a).q <= a0; its sign
    # at a point is that of the integer product with the point's row.
    facet_data = []
    for ray in rays:
        values = [int_dot(row, ray) for row in rows]
        if min(values) < 0:
            raise TheoremViolationError("double description produced a cut inequality (bug)")
        facet_data.append((ray[1:], tuple(i for i, val in enumerate(values) if val == 0)))

    # A point is a vertex iff its active facet functionals span the space.
    active_per_point: dict[int, list[tuple[int, ...]]] = {i: [] for i in range(len(pts))}
    for a, tight in facet_data:
        for i in tight:
            active_per_point[i].append(a)
    vertex_ids = [i for i in range(len(pts)) if int_rank(active_per_point[i]) == d]
    vertex_ids.sort(key=lambda i: pts[i])
    vertex_pts = [pts[i] for i in vertex_ids]
    old_to_new = {old: new for new, old in enumerate(vertex_ids)}

    # Facet normal n = B^T (B B^T)^-1 (-a) for the direction basis B, the
    # vector of the direction space whose dot product is the functional -a on
    # coordinates.  Its primitive form comes from one integer matrix per hull.
    basis_t = transpose(dir_basis)
    to_normal = integral_rows(mat_mul(basis_t, inverse(mat_mul(dir_basis, basis_t))))[0]
    vertex_ints, vertex_scale = integral_rows(vertex_pts)

    facets = []
    for a, tight in facet_data:
        normal = primitive([-int_dot(row, a) for row in to_normal])
        vidx = tuple(sorted(old_to_new[i] for i in tight if i in old_to_new))
        values = [int_dot(normal, v) for v in vertex_ints]
        top = values[vidx[0]]
        if max(values) > top:
            raise TheoremViolationError("facet normal conversion failed (bug)")
        if tuple(i for i, val in enumerate(values) if val == top) != vidx:
            raise TheoremViolationError("facet tight set mismatch (bug)")
        facets.append((Facet(normal=vec(normal), offset=Fraction(top, vertex_scale),
                             vertex_indices=vidx), a))
    facets.sort(key=lambda fa: (fa[0].vertex_indices, fa[0].normal))

    lattice = _face_lattice([rows[i] for i in vertex_ids], [a for _, a in facets],
                            [vertex_mask(f.vertex_indices) for f, _ in facets], d)
    poly = ExactPolytope(vertices=tuple(vertex_pts), ambient_dim=ambient_dim, affine_dim=d,
                         facets=tuple(f for f, _ in facets), face_lattice=lattice)
    if tuple(f.vertex_indices for f in lattice[0]) != tuple((i,) for i in range(len(vertex_pts))):
        raise TheoremViolationError("0-faces do not match the vertex set (bug)")
    return poly


def vertex_mask(indices: Iterable[int]) -> int:
    """The bitmask of a set of vertex indices."""
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _bits(mask: int) -> tuple[int, ...]:
    """The set bits of a nonnegative mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _dd_rays(rows: Sequence[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    """Extreme rays of the pointed cone {y : row . y >= 0 for all rows}.

    Incremental double description with the combinatorial adjacency test;
    everything stays in primitive integer vectors.
    """
    chosen: list[int] = []
    for i, r in enumerate(rows):
        if int_rank([rows[k] for k in chosen] + [r]) > len(chosen):
            chosen.append(i)
        if len(chosen) == n:
            break
    if len(chosen) < n:
        raise TheoremViolationError("lifted cone is not pointed (bug)")

    inv = inverse(tuple(vec(rows[i]) for i in chosen))
    rays = [primitive(col) for col in transpose(inv)]

    order = chosen + [i for i in range(len(rows)) if i not in chosen]
    active = [0 for _ in rays]

    for step, ri in enumerate(order):
        row = rows[ri]
        vals = [int_dot(row, r) for r in rays]
        if any(v < 0 for v in vals):
            keep = [k for k, v in enumerate(vals) if v >= 0]
            pos = [k for k, v in enumerate(vals) if v > 0]
            neg = [k for k, v in enumerate(vals) if v < 0]
            new_rays = []
            new_active = []
            for p in pos:
                for q in neg:
                    z = active[p] & active[q]
                    # Adjacent rays of a cone in R^n share n - 2 tight rows.
                    if z.bit_count() < n - 2:
                        continue
                    if any(k not in (p, q) and (z & active[k]) == z for k in range(len(rays))):
                        continue
                    combo = tuple(vals[p] * rn - vals[q] * rp
                                  for rp, rn in zip(rays[p], rays[q]))
                    new_rays.append(primitive(combo))
                    new_active.append(z | (1 << step))
            rays = [rays[k] for k in keep] + new_rays
            active = [active[k] | ((1 << step) if vals[k] == 0 else 0) for k in keep] + new_active
        else:
            active = [m | ((1 << step) if v == 0 else 0) for m, v in zip(active, vals)]
    return sorted(rays)


def _face_lattice(lifted: Sequence[tuple[int, ...]], facet_rows: Sequence[tuple[int, ...]],
                  facet_masks: Sequence[int], d: int) -> dict[int, tuple[PolytopeFace, ...]]:
    """Close facet/vertex incidences under intersection and grade by dimension.

    `facet_rows[k]` is a positive multiple of facet k's functional on
    affine coordinates and `facet_masks[k]` its vertex bitmask.  A face's
    dimension is d minus the integer rank of the rows of the facets through
    it; it is checked against the affine rank of its own lifted vertex rows.
    """
    vertex_facets = [0] * len(lifted)
    for k, fm in enumerate(facet_masks):
        for i in _bits(fm):
            vertex_facets[i] |= 1 << k

    full = (1 << len(lifted)) - 1
    seen = {full}
    queue = [full]
    while queue:
        cur = queue.pop()
        for fm in facet_masks:
            nm = cur & fm
            if nm and nm not in seen:
                seen.add(nm)
                queue.append(nm)

    levels: dict[int, list[PolytopeFace]] = {}
    for mask in seen:
        vidx = _bits(mask)
        through = vertex_facets[vidx[0]]
        for i in vidx[1:]:
            through &= vertex_facets[i]
        dim = d - int_rank([facet_rows[k] for k in _bits(through)])
        if int_rank([lifted[i] for i in vidx]) != dim + 1:
            raise TheoremViolationError("face dimension disagrees with its vertex rank (bug)")
        levels.setdefault(dim, []).append(PolytopeFace(vertex_indices=vidx, dim=dim))
    return {dim: tuple(sorted(fs, key=lambda f: f.vertex_indices))
            for dim, fs in sorted(levels.items())}


def support_set(p: ExactPolytope, u: Sequence) -> tuple[PolytopeFace, Fraction]:
    """Exposed face argmax_v u . v with the support value h_P(u).  For u in
    the root span the Killing form exposes the same face of a Kostant
    polytope, with the value `killing_ratio` * h_P(u)."""
    uv = vec(u)
    if all(x == 0 for x in uv):
        raise InvalidInputError("exposed faces require nonzero u")
    (u_ints,), u_scale = integral_rows([uv])
    vertex_ints, vertex_scale = p._integral_vertices
    values = [int_dot(v, u_ints) for v in vertex_ints]
    h = max(values)
    vidx = tuple(i for i, val in enumerate(values) if val == h)
    if not p.has_face(vidx):
        raise TheoremViolationError("support set %s is not a lattice face (bug)" % (vidx,))
    return p.face(vidx), Fraction(h, u_scale * vertex_scale)


def face_orbit(perms: Sequence[Sequence[int]],
               vertex_indices: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """The sorted orbit of a vertex set under the group the permutations generate."""
    start = tuple(sorted(vertex_indices))
    seen = {start}
    frontier = [start]
    while frontier:
        face = frontier.pop()
        for perm in perms:
            image = tuple(sorted(perm[i] for i in face))
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    return tuple(sorted(seen))


def act_on_faces(group: WeylGroup, p: ExactPolytope) -> dict[int, tuple[FaceOrbit, ...]]:
    """Partition every lattice level into orbits of the group action.

    Each orbit is the closure of a face under the simple reflections; the
    polytope's vertex set has to be stable under the group.
    """
    perms = p._permutations(group)
    out: dict[int, tuple[FaceOrbit, ...]] = {}
    for dim in sorted(p.face_lattice):
        assigned: set[tuple[int, ...]] = set()
        orbits = []
        # Levels are sorted, so each orbit is met first at its least member.
        for f in p.face_lattice[dim]:
            if f.vertex_indices in assigned:
                continue
            members = face_orbit(perms, f.vertex_indices)
            if not all(p.has_face(m) for m in members):
                raise TheoremViolationError("group action left the face lattice (bug)")
            assigned.update(members)
            orbits.append(FaceOrbit(dim=dim, representative=members[0], members=members))
        out[dim] = tuple(orbits)
    return out


def facets_through(p: ExactPolytope, face: PolytopeFace) -> tuple[Facet, ...]:
    """The facets of P containing the face, in the order of `p.facets`."""
    vertices = set(face.vertex_indices)
    return tuple(f for f in p.facets if vertices.issubset(f.vertex_indices))


def fixed_vector_in_cone(p: ExactPolytope, face: PolytopeFace) -> Vector:
    """A vector exposing exactly the given proper face, fixed by its stabilizer.

    Sums the outward normals of the facets containing the face, each scaled
    by 1 / (offset - normal . b) for the barycenter b of the vertices.  That
    scaling does not depend on the normal's length, and every dot-orthogonal
    symmetry of P (all of W, on a Kostant polytope) fixes b and permutes the
    facets through the face, so the sum is fixed by the face's stabilizer.
    With Killing offsets the same sum is this vector over `killing_ratio`.
    """
    if face.vertex_indices == p.top.vertex_indices:
        raise InvalidInputError("the whole polytope has no exposing vector")
    barycenter = vscale(Fraction(1, len(p.vertices)), lincomb([1] * len(p.vertices), p.vertices))
    u = zero_vec(p.ambient_dim)
    for f in facets_through(p, face):
        u = vadd(u, vscale(1 / (f.offset - dot(f.normal, barycenter)), f.normal))
    exposed, _ = support_set(p, u)
    if exposed.vertex_indices != face.vertex_indices:
        raise TheoremViolationError("scaled normal sum does not expose the face (bug)")
    return u
