"""Exact convex geometry over the rationals.

Hulls are computed from the V-representation by double description on the
lifted cone.  The points are taken in coordinates of their affine hull and
lifted to primitive integer rows, so the double description, the facet tight
and cut tests, the vertex test, the facet values and the grading of the face
lattice all run on Python ints; only the reported facet normals and offsets
are turned back into exact fractions, and every polytope keeps its vertices
as integer rows over one denominator.  The face lattice is the closure of the
facet/vertex incidences under intersection, graded by the fraction-free rank
of the rows of the facets through each face; the bitmask of those facets is
kept for every face (`facet_masks`) and read, never rebuilt.  A face is just
its vertex set and its dimension: its affine hull is the intersection of the
facets through it (G. M. Ziegler, Lectures on Polytopes, 2.1), so any
geometry of a face is read off those facets (`facets_through`).  Both kinds
of polytope hold one face table (`_Polytope`): the faces and facets they
keep and each kept face's facet mask, so `facets_through` is one mask read
for both; each finds a face by its vertex set in one way (`find_face`).  This
module is the independent oracle the combinatorial face classification is
checked against, so there is no floating point anywhere.

A Kostant polytope is held by its orbit (`weyl.Orbit`), whose integer rows are
its vertex table (`vertices` derives fractions from them on first read), and
its faces and facets through one vertex x (`KostantPolytope`): they come from
the vertex figure at x, so `hull` of the neighbours s_beta.x of x builds them,
at most one per positive root, certified against the whole orbit
(`from_vertex_figure`); every other face and facet is a W-image of one of
them, never built.  The full lattice of `hull` stays as the oracle.

The Weyl group reaches a polytope only through the r simple-reflection
permutations of its vertices (`act_on_faces`, `face_orbit`) and the orbit's
search tree, read as paths of simple reflections to x.

Every inner product here is the coordinate dot product.  On a Kostant
polytope that loses nothing: W.x lies in the root span, where W acts by
reflections orthogonal for the dot product, and the Killing form is
`killing_ratio` times it (the argument is in `roots`).  So facets, support
sets and exposed faces are those of the Killing form; offsets and support
values are its values divided by `killing_ratio`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .errors import CapExceededError, InvalidInputError, TheoremViolationError
from .linalg import (Vector, dot, frac_str, int_dot, int_rank, integral_rows, inverse,
                     mat_mul, nullspace, point_str, primitive, rref, transpose,
                     vadd, vec, vscale, vsub, zero_vec)
from .weyl import Orbit, WeylGroup, vertex_permutations

#: desk-scale guard on hull input size
DEFAULT_HULL_CAP = 200


class PolytopeFace(NamedTuple):
    """A face, stored by its sorted vertex-index set and graded by dimension."""

    vertex_indices: tuple[int, ...]
    dim: int


class Facet(NamedTuple):
    """Outward normal and offset: normal . x <= offset on P.  The normal, a
    primitive integer vector, is the same for every W-invariant form; the
    offset is in dot-product units, the Killing one over `killing_ratio`."""

    normal: Vector
    offset: Fraction
    vertex_indices: tuple[int, ...]


class FaceOrbit(NamedTuple):
    """One W-orbit of faces of a fixed dimension, canonical representative first."""

    dim: int
    representative: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]


class _Polytope:
    """The face table both kinds of polytope are read through: the vertices
    as integer rows `vertex_ints` over `vertex_scale`, the faces it keeps
    by dimension, the facets it keeps, and for each kept face the bitmask of
    the kept facets through it (`facet_masks`, bit k for the k-th facet).  A
    subclass names its kept faces and facets and finds a face by its vertex
    set (`find_face`)."""

    def __init__(self, vertex_ints: Sequence[tuple[int, ...]], vertex_scale: int,
                 faces: dict[int, tuple[PolytopeFace, ...]], facets: tuple[Facet, ...],
                 facet_masks: dict[tuple[int, ...], int]):
        self.vertex_ints, self.vertex_scale = vertex_ints, vertex_scale
        self.ambient_dim = len(vertex_ints[0])
        self.affine_dim = max(faces)
        self._faces, self._facets, self.facet_masks = faces, facets, facet_masks
        self._by_vertices = {f.vertex_indices: f for fs in faces.values() for f in fs}

    @cached_property
    def vertices(self) -> tuple[Vector, ...]:
        """The vertices as exact fractions, derived from the integer rows."""
        return tuple(tuple(Fraction(c, self.vertex_scale) for c in row) for row in self.vertex_ints)

    @property
    def top(self) -> PolytopeFace:
        return PolytopeFace(tuple(range(len(self.vertex_ints))), self.affine_dim)

    def facets_through(self, face: PolytopeFace) -> tuple[Facet, ...]:
        """The kept facets containing a kept face, in the order they are kept."""
        mask = self.facet_masks.get(face.vertex_indices)
        if mask is None:
            raise InvalidInputError("vertex set %s is not a face this polytope keeps"
                                    % (face.vertex_indices,))
        return tuple(self._facets[k] for k in _bits(mask))


class ExactPolytope(_Polytope):
    """Exact polytope that keeps its whole face lattice and all its facets;
    immutable."""

    face_lattice = property(lambda self: self._faces)
    facets = property(lambda self: self._facets)

    def find_face(self, vertex_indices: Iterable[int]) -> PolytopeFace | None:
        """The face on the given vertex set, or None if there is none."""
        return self._by_vertices.get(tuple(sorted(vertex_indices)))

    def proper_faces(self) -> tuple[PolytopeFace, ...]:
        return tuple(f for d in sorted(self.face_lattice) if d < self.affine_dim
                     for f in self.face_lattice[d])

    def f_vector(self) -> tuple[int, ...]:
        """Face counts per dimension, top face included."""
        return tuple(len(self.face_lattice[d]) for d in sorted(self.face_lattice))


class KostantPolytope(_Polytope):
    """The orbit polytope P = conv(W.x), which keeps its faces and facets
    through the vertex x.

    W is transitive on the vertices, so every face of P is a W-image of a
    face through x (`from_vertex_figure` builds those, with their facet
    masks); `facets_through` takes a face through x only.  A vertex set is
    looked up by moving its least vertex to x along the orbit's search tree.
    A face F through x stands for |W.x| / |F| faces of its dimension: each
    face has |F| vertices, and as many faces of a kind pass through every
    vertex as through x.  The f-vector is checked to be integral and to
    satisfy Euler-Poincare.
    """

    faces_through_x = property(lambda self: self._faces)
    facets_through_x = property(lambda self: self._facets)
    #: entry s sends the index of v to the index of s(v), s simple (`Orbit.perms`)
    perms = property(lambda self: self.orbit.perms)

    def __init__(self, orbit: Orbit, faces_through_x: dict[int, tuple[PolytopeFace, ...]],
                 facets_through_x: tuple[Facet, ...], facet_masks: dict[tuple[int, ...], int]):
        super().__init__(orbit.ints, orbit.scale, faces_through_x, facets_through_x, facet_masks)
        self.orbit = orbit
        self.x_index = orbit.x_index
        counts = {dim: sum(Fraction(len(orbit), len(f.vertex_indices)) for f in fs)
                  for dim, fs in faces_through_x.items()}
        if any(c.denominator != 1 for c in counts.values()):
            raise TheoremViolationError("face counts %s are not integers (bug)" % (counts,))
        if sum((-1) ** dim * c for dim, c in counts.items()) != 1:
            raise TheoremViolationError("f-vector fails Euler-Poincare (bug)")
        self._f_vector = tuple(int(counts[dim]) for dim in sorted(counts))

    def _to_x(self, k: int, image: Iterable[int]) -> tuple[int, ...]:
        """The image of a vertex list under the simple reflections that move
        vertex k to x along the orbit's search tree (`Orbit.tree`)."""
        while k != self.x_index:
            s, k = self.orbit.tree[k]
            perm = self.orbit.perms[s]
            image = [perm[i] for i in image]
        return tuple(image)

    @cached_property
    def x_to_vertex_0(self) -> tuple[int, ...]:
        """The vertex permutation of an element of W taking x to vertex 0:
        the inverse of the one taking vertex 0 to x."""
        to_x = self._to_x(0, range(len(self.vertex_ints)))
        return tuple(sorted(range(len(to_x)), key=to_x.__getitem__))

    def face_at_x(self, key: tuple[int, ...]) -> PolytopeFace | None:
        """The face through x that the sorted vertex set `key` is moved to by
        one walk of the simple reflections taking its least vertex to x, or
        None if `key` is no face."""
        if not key or key[0] < 0 or key[-1] >= len(self.vertex_ints):
            return None
        return self._by_vertices.get(tuple(sorted(self._to_x(key[0], key))))

    def find_face(self, vertex_indices: Iterable[int]) -> PolytopeFace | None:
        """The face on the given vertex set, or None if there is none."""
        key = tuple(sorted(vertex_indices))
        found = self.face_at_x(key)
        return None if found is None else PolytopeFace(vertex_indices=key, dim=found.dim)

    def f_vector(self) -> tuple[int, ...]:
        """Face counts per dimension, top face included."""
        return self._f_vector


def hull(points: Sequence[Sequence], cap: int = DEFAULT_HULL_CAP) -> ExactPolytope:
    """Exact convex hull with complete face lattice.

    Points are deduplicated; the polytope is processed inside its affine hull,
    so lower-dimensional inputs are graded correctly.  Rejects more than `cap`
    points (desk-scale guard); a single repeated point yields the degenerate
    vertex-only polytope.
    """
    pts: list[Vector] = list(dict.fromkeys(vec(p) for p in points))
    if not pts:
        raise InvalidInputError("hull of an empty point set")
    if len(pts) > cap:
        raise CapExceededError("hull input has %d points, cap is %d" % (len(pts), cap))
    if any(len(p) != len(pts[0]) for p in pts):
        raise InvalidInputError("points have mixed dimensions")

    base = pts[0]
    red, pivots = rref([vsub(p, base) for p in pts[1:]])
    dir_basis = red[:len(pivots)]
    d = len(dir_basis)

    if d == 0:
        vertex_ints, vertex_scale = integral_rows(pts[:1])
        return ExactPolytope(vertex_ints, vertex_scale,
                             {0: (PolytopeFace((0,), 0),)}, (), {(0,): 0})

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
    old_to_new = {old: new for new, old in enumerate(vertex_ids)}

    # Facet normal n = B^T (B B^T)^-1 (-a) for the direction basis B, the
    # vector of the direction space whose dot product is the functional -a on
    # coordinates.  Its primitive form comes from one integer matrix per hull.
    basis_t = transpose(dir_basis)
    to_normal = integral_rows(mat_mul(basis_t, inverse(mat_mul(dir_basis, basis_t))))[0]
    vertex_ints, vertex_scale = integral_rows([pts[i] for i in vertex_ids])

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

    lattice, facet_masks = _face_lattice([rows[i] for i in vertex_ids], [a for _, a in facets],
                                         [vertex_mask(f.vertex_indices) for f, _ in facets], d)
    poly = ExactPolytope(vertex_ints, vertex_scale, lattice,
                         tuple(f for f, _ in facets), facet_masks)
    if tuple(f.vertex_indices for f in lattice[0]) != tuple((i,) for i in range(len(vertex_ids))):
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
                  facet_masks: Sequence[int], d: int
                  ) -> tuple[dict[int, tuple[PolytopeFace, ...]], dict[tuple[int, ...], int]]:
    """Close facet/vertex incidences under intersection and grade by dimension.

    `facet_rows[k]` is a positive multiple of facet k's functional on
    affine coordinates and `facet_masks[k]` its vertex bitmask.  A face's
    dimension is d minus the integer rank of the rows of the facets through
    it; it is checked against the affine rank of its own lifted vertex rows.
    Returns the faces by dimension and the facet bitmask of each vertex set.
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
    through_face = {}
    for mask in seen:
        vidx = _bits(mask)
        through = vertex_facets[vidx[0]]
        for i in vidx[1:]:
            through &= vertex_facets[i]
        dim = d - int_rank([facet_rows[k] for k in _bits(through)])
        if int_rank([lifted[i] for i in vidx]) != dim + 1:
            raise TheoremViolationError("face dimension disagrees with its vertex rank (bug)")
        levels.setdefault(dim, []).append(PolytopeFace(vertex_indices=vidx, dim=dim))
        through_face[vidx] = through
    return ({dim: tuple(sorted(fs, key=lambda f: f.vertex_indices))
             for dim, fs in sorted(levels.items())}, through_face)


def vertex_figure_points(orbit: Orbit, neighbours: Sequence[int]) -> list[Vector]:
    """The points q_v = (v - x) / (x.x - x.v) of the given orbit points v != x.

    They lie on the hyperplane x.q = -1, and over all the vertices other than
    x they generate the cone of P at x: their hull is the vertex figure P/x,
    whose faces are those of P through x (G. M. Ziegler, Lectures on
    Polytopes, 2.1).  Only the neighbours s_beta.x of x are passed
    (`faces.build_kostant_polytope`), certified against the whole orbit by
    `from_vertex_figure`.  Raises unless x.x > x.v for each v given, as holds
    for every v != x on a W-orbit.
    """
    x_ints, scale = orbit.ints[orbit.x_index], orbit.scale
    xx = int_dot(x_ints, x_ints)
    points = []
    for k in neighbours:
        v_ints = orbit.ints[k]
        gap = xx - int_dot(x_ints, v_ints)  # scale**2 (x.x - x.v)
        if gap <= 0:
            raise TheoremViolationError(
                "x.x <= x.v at the orbit point %s: x is not a vertex (ext P = W.x failed)"
                % point_str(v_ints, scale))
        points.append(tuple(Fraction(scale * (a - b), gap) for a, b in zip(v_ints, x_ints)))
    return points


def from_vertex_figure(group: WeylGroup, orbit: Orbit, figure: ExactPolytope) -> KostantPolytope:
    """P = conv(W.x) from the hull of a vertex figure at x.

    A facet m.q <= c of the figure gives the facet of P through x with normal
    N = m + c x.  The barycenter of W.x is fixed by W and lies in the root
    span, where W fixes only 0, so it is 0: x lies in the direction space of
    P, and so does N.  As x.(v - x) = x.v - x.x and v - x = (x.x - x.v) q_v,
    N.(v - x) = (x.x - x.v)(m.q_v - c) at every orbit point v.  So the figure
    may be the hull of the q_v of any subset of the orbit: it is certified,
    and is then the hull of every q_v, when each N holds on the whole orbit
    and each v - x lies in the span of the figure.  A failure is a
    TheoremViolationError naming the first orbit point that breaks it.  The
    vertices of a facet are all v on which it is tight, found over the whole
    orbit, since the far vertices of a facet are not neighbours of x and so
    are not vertices of the figure.  A face G of the figure gives the face
    of P through x, of dimension dim G + 1, on the vertices of every facet of
    P whose figure facet contains G (the figure's `facet_masks`), and those
    facets give its facet mask, in `facets_through_x` order; the vertex x,
    the empty face of the figure, is on every facet through x.  A point
    figure (P a segment) has one facet, its empty face 0.q <= 1.
    """
    # P reads `orbit.perms`; this call keeps the name perfbench traces (ROADMAP item 6)
    vertex_permutations(group, orbit)
    vertex_ints, scale, x_index = orbit.ints, orbit.scale, orbit.x_index
    x_ints = vertex_ints[x_index]
    bounds = ([(f.normal, f.offset) for f in figure.facets] if figure.affine_dim
              else [(zero_vec(len(x_ints)), Fraction(1))])
    for z in map(primitive, nullspace(figure.vertex_ints)):
        zx = int_dot(z, x_ints)
        off = next((i for i, v in enumerate(vertex_ints) if int_dot(z, v) != zx), None)
        if off is not None:
            raise TheoremViolationError(
                "vertex-figure certificate failed: orbit point %d %s is off the span of "
                "the figure at x, the hyperplane %s.v = %s" % (
                    off, point_str(vertex_ints[off], scale), point_str(z),
                    frac_str(Fraction(zx, scale))))
    facets = []
    for m, c in bounds:
        normal = primitive(vadd(m, vscale(c / scale, x_ints)))
        values = [int_dot(normal, v) for v in vertex_ints]
        top = values[x_index]
        cut = next((i for i, val in enumerate(values) if val > top), None)
        if cut is not None:
            raise TheoremViolationError(
                "vertex-figure certificate failed: orbit point %d %s cuts the facet "
                "%s.v <= %s through x" % (cut, point_str(vertex_ints[cut], scale),
                                          point_str(normal), frac_str(Fraction(top, scale))))
        facets.append(Facet(normal=vec(normal), offset=Fraction(top, scale),
                            vertex_indices=tuple(i for i, val in enumerate(values) if val == top)))

    facets_through_x = tuple(sorted(facets, key=lambda f: (f.vertex_indices, f.normal)))
    bit = {f: 1 << k for k, f in enumerate(facets_through_x)}
    lifted = [(vertex_mask(f.vertex_indices), bit[f]) for f in facets]
    levels: dict[int, list[PolytopeFace]] = {0: [PolytopeFace((x_index,), 0)]}
    masks = {(x_index,): (1 << len(facets)) - 1}
    for dim, faces in figure.face_lattice.items():
        for g in faces:
            mask, through = (1 << len(vertex_ints)) - 1, 0
            for k in _bits(figure.facet_masks[g.vertex_indices]):
                mask &= lifted[k][0]
                through |= lifted[k][1]
            face = PolytopeFace(_bits(mask), dim + 1)
            levels.setdefault(dim + 1, []).append(face)
            masks[face.vertex_indices] = through
    return KostantPolytope(
        orbit, {dim: tuple(sorted(fs, key=lambda f: f.vertex_indices))
                for dim, fs in sorted(levels.items())}, facets_through_x, masks)


def support_set(p: _Polytope, u: Sequence) -> tuple[PolytopeFace, Fraction]:
    """Exposed face argmax_v u . v with the support value h_P(u).  For u in
    the root span the Killing form exposes the same face of a Kostant
    polytope, with the value `killing_ratio` * h_P(u)."""
    uv = vec(u)
    if len(uv) != p.ambient_dim:
        raise InvalidInputError("u has %d coordinates, the polytope lives in %d"
                                % (len(uv), p.ambient_dim))
    if all(x == 0 for x in uv):
        raise InvalidInputError("exposed faces require nonzero u")
    (u_ints,), u_scale = integral_rows([uv])
    values = [int_dot(v, u_ints) for v in p.vertex_ints]
    h = max(values)
    vidx = tuple(i for i, val in enumerate(values) if val == h)
    face = p.find_face(vidx)
    if face is None:
        raise TheoremViolationError("support set %s is not a face (bug)" % (vidx,))
    return face, Fraction(h, u_scale * p.vertex_scale)


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


def act_on_faces(perms: Sequence[Sequence[int]],
                 levels: dict[int, Sequence[PolytopeFace]]) -> dict[int, tuple[FaceOrbit, ...]]:
    """Partition each level of faces into orbits of the group the vertex
    permutations generate.

    Each orbit is the closure of a face under the permutations, and every
    image must be a face of the same level: the whole lattice under the r
    simple reflections, or the faces through x under those fixing x.
    """
    out: dict[int, tuple[FaceOrbit, ...]] = {}
    for dim in sorted(levels):
        keys = {f.vertex_indices for f in levels[dim]}
        assigned: set[tuple[int, ...]] = set()
        orbits = []
        # Levels are sorted, so each orbit is met first at its least member.
        for f in levels[dim]:
            if f.vertex_indices in assigned:
                continue
            members = face_orbit(perms, f.vertex_indices)
            if not keys.issuperset(members):
                raise TheoremViolationError("group action left the faces it acts on (bug)")
            assigned.update(members)
            orbits.append(FaceOrbit(dim=dim, representative=members[0], members=members))
        out[dim] = tuple(orbits)
    return out
